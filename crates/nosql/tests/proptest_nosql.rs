//! Property tests: the LSM table must behave exactly like a model BTreeMap
//! under any operation sequence, and document queries must agree with a
//! brute-force scan.

use std::collections::BTreeMap;

use proptest::prelude::*;
use scnosql::document::{Collection, Doc, DocId, Filter};
use scnosql::wide_column::Table;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..8))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

/// Floats drawn for field values and range bounds: both zeros and a few
/// values either side of them.
const FLOATS: [f64; 6] = [-2.0, -1.5, -0.0, 0.0, 1.0, 2.0];

/// A scalar field value from a small universe, so equal values recur.
fn scalar() -> impl Strategy<Value = Doc> {
    prop_oneof![
        2 => (-2i64..3).prop_map(Doc::I64),
        3 => (0..FLOATS.len()).prop_map(|i| Doc::F64(FLOATS[i])),
        1 => (0usize..3).prop_map(|i| Doc::Str(["a", "b", ""][i].into())),
    ]
}

/// A field value: a scalar, an array of scalars, or an object holding one.
fn field_value() -> impl Strategy<Value = Doc> {
    prop_oneof![
        5 => scalar(),
        2 => proptest::collection::vec(scalar(), 0..3).prop_map(Doc::Array),
        1 => scalar().prop_map(|v| Doc::object([("z", v)])),
    ]
}

/// A filter on the indexed field `x`: equality, a range (bounds may be
/// `0.0` and `-0.0` in either order), or an `And` whose second arm is the
/// indexed one.
fn indexed_filter() -> impl Strategy<Value = Filter> {
    prop_oneof![
        3 => field_value().prop_map(|v| Filter::Eq("x".into(), v)),
        2 => (0..FLOATS.len(), 0..FLOATS.len()).prop_map(|(a, b)| {
            let (lo, hi) = if FLOATS[a] <= FLOATS[b] { (a, b) } else { (b, a) };
            Filter::Range("x".into(), FLOATS[lo], FLOATS[hi])
        }),
        1 => scalar().prop_map(|v| {
            Filter::And(vec![Filter::Exists("y".into()), Filter::Eq("x".into(), v)])
        }),
    ]
}

#[derive(Debug)]
enum DocOp {
    Insert(Doc),
    /// Replaces the `n`-th live document (mod the count).
    Update(usize, Doc),
    /// Removes the `n`-th live document (mod the count).
    Remove(usize),
    Query(Filter),
}

fn doc_op() -> impl Strategy<Value = DocOp> {
    prop_oneof![
        4 => field_value().prop_map(DocOp::Insert),
        2 => (0usize..64, field_value()).prop_map(|(n, v)| DocOp::Update(n, v)),
        1 => (0usize..64).prop_map(DocOp::Remove),
        3 => indexed_filter().prop_map(DocOp::Query),
    ]
}

/// The id of the `n`-th live document (mod the count), if any.
fn nth_id(c: &Collection, n: usize) -> Option<DocId> {
    let len = c.len();
    (len > 0).then(|| c.iter().nth(n % len).map(|(id, _)| id))?
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LSM table ≡ BTreeMap model under arbitrary put/delete/flush/compact
    /// sequences: every get and every scan agrees.
    #[test]
    fn lsm_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut table = Table::new("t", 5); // tiny budget → frequent flushes
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let key = format!("k{k:03}");
                    table.put(&key, "f", "q", v.clone()).unwrap();
                    model.insert(key, v);
                }
                Op::Delete(k) => {
                    let key = format!("k{k:03}");
                    table.delete(&key, "f", "q").unwrap();
                    model.remove(&key);
                }
                Op::Flush => table.flush(),
                Op::Compact => table.compact(),
            }
        }
        // Point reads agree.
        for k in 0u16..=255 {
            let key = format!("k{k:03}");
            prop_assert_eq!(table.get(&key, "f", "q"), model.get(&key).cloned());
        }
        // Full scan agrees (ordered).
        let scanned: Vec<(String, Vec<u8>)> =
            table.scan_rows("", "\u{10FFFF}").map(|(k, v)| (k.row, v)).collect();
        let expected: Vec<(String, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Indexed and unindexed collections return the same documents (by
    /// id) for every filter an index can serve, under any interleaving of
    /// inserts, updates, removes and queries — including values that are
    /// equal but not bit-identical (`-0.0` and `0.0`, alone or nested).
    #[test]
    fn document_index_matches_scan(ops in proptest::collection::vec(doc_op(), 1..40)) {
        let mut indexed = Collection::new("a");
        indexed.create_index("x");
        let mut plain = Collection::new("b");
        for op in ops {
            match op {
                DocOp::Insert(x) => {
                    let doc = Doc::object([("x", x), ("y", Doc::I64(plain.len() as i64))]);
                    let id = indexed.insert(doc.clone()).unwrap();
                    prop_assert_eq!(plain.insert(doc).unwrap(), id);
                }
                DocOp::Update(pick, x) => {
                    let Some(id) = nth_id(&plain, pick) else { continue };
                    let doc = Doc::object([("x", x)]);
                    prop_assert!(indexed.update(id, doc.clone()).unwrap().is_some());
                    prop_assert!(plain.update(id, doc).unwrap().is_some());
                }
                DocOp::Remove(pick) => {
                    let Some(id) = nth_id(&plain, pick) else { continue };
                    prop_assert!(indexed.remove(id).is_some());
                    prop_assert!(plain.remove(id).is_some());
                }
                DocOp::Query(filter) => {
                    let ids = |c: &Collection| -> Vec<DocId> {
                        c.find(&filter).unwrap().into_iter().map(|(id, _)| id).collect()
                    };
                    prop_assert_eq!(ids(&indexed), ids(&plain), "{:?}", filter);
                }
            }
        }
        prop_assert_eq!(indexed.query_stats().0, 0, "every query used the index");
    }

    /// WAL recovery loses nothing: state after crash+replay equals state
    /// before the crash.
    #[test]
    fn wal_recovery_is_lossless(
        kvs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..30),
    ) {
        let mut table = Table::new("t", 1000); // never auto-flush
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (k, v) in kvs {
            let key = format!("k{k}");
            table.put(&key, "f", "q", vec![v]).unwrap();
            model.insert(key, vec![v]);
        }
        let recovered = table.recover_from();
        for (k, v) in &model {
            let got = recovered.get(k, "f", "q");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }
}
