//! The benchmark's workloads: each is a `MetroConfig` built from a seed.
//!
//! All three plan a one-million-user day. They differ in the request mix
//! and the number of demand windows, so each puts a different layer on
//! the critical path (see `perfbench/README.md`). The seed drives the
//! request stream (keys, mix, feature rows, keyspace contents); the fault
//! schedule is the shared one E19's default day suffers, generated exactly
//! as `MetroSim` generates it for seed 42. Left seeded, a day whose
//! schedule happens to spare the broker loses no ingest at all and costs
//! a quarter less wall time, so the spread across seeds would measure the
//! schedule rather than the program.
//!
//! `e19-quick` is E19's quick configuration, left exactly as E19 runs it;
//! its seed-42 day is pinned by the committed E19 baseline.

use scfault::{FaultPlan, FaultSpec};
use scmetro::{MetroConfig, PopulationConfig, PopulationModel, TopologyPlan};

/// Seed of the shared fault schedule (E19's default seed).
const FAULT_SEED: u64 = 42;

/// A named day configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E19 default mix over 96 quarter-hour windows.
    CityDay,
    /// Writes and inference over more distinct rows than the inference
    /// cache holds, over 24 hourly windows.
    WriteInfer,
    /// The city-day mix over 1 440 one-minute windows.
    FineWindows,
    /// E19's quick configuration (24 windows, 4 000 requests).
    E19Quick,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "city-day" => Some(Workload::CityDay),
            "write-infer" => Some(Workload::WriteInfer),
            "fine-windows" => Some(Workload::FineWindows),
            "e19-quick" => Some(Workload::E19Quick),
            _ => None,
        }
    }

    /// The day to run for `seed`.
    pub fn config(self, seed: u64) -> MetroConfig {
        let day = |windows: usize, sample_total: u64| MetroConfig {
            seed,
            population: PopulationConfig {
                windows,
                ..PopulationConfig::default()
            },
            sample_total,
            ..MetroConfig::default()
        };
        let cfg = match self {
            Workload::CityDay => day(96, 80_000),
            Workload::WriteInfer => MetroConfig {
                write_fraction: 0.45,
                infer_fraction: 0.5,
                row_pool: 4_096,
                ..day(24, 80_000)
            },
            Workload::FineWindows => day(1_440, 10_000),
            Workload::E19Quick => return day(24, 4_000),
        };
        MetroConfig {
            fault_plan: Some(shared_fault_plan(&cfg)),
            ..cfg
        }
    }
}

/// The schedule `MetroSim::new` generates for `cfg` at [`FAULT_SEED`].
fn shared_fault_plan(cfg: &MetroConfig) -> FaultPlan {
    let pop = PopulationModel::new(cfg.population.clone());
    let plan = TopologyPlan::size(&pop, &cfg.sizing);
    FaultPlan::generate(
        &FaultSpec::new(cfg.population.day, plan.initial_shards as u32)
            .intensity(cfg.fault_intensity),
        FAULT_SEED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmetro::MetroSim;

    #[test]
    fn shared_schedule_is_metrosims_seed_42_schedule() {
        for w in [
            Workload::CityDay,
            Workload::WriteInfer,
            Workload::FineWindows,
        ] {
            let seeded = MetroSim::new(MetroConfig {
                fault_plan: None,
                ..w.config(FAULT_SEED)
            });
            for seed in [FAULT_SEED, 7] {
                let cfg = w.config(seed);
                assert_eq!(cfg.fault_plan.as_ref(), Some(seeded.fault_plan()), "{w:?}");
            }
        }
    }
}
