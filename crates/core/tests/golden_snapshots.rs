//! Golden snapshot fixtures: the bytes of every format, pinned.
//!
//! `fixtures/` holds one small snapshot per format, each written from a
//! fixed index (the recipes below):
//!
//! * `ba24.v1.pspc`, `ba24w.v1.pspc` — legacy v1 of `barabasi_albert(24,
//!   2, 1)`, unweighted and weighted. Nothing writes v1 any more, so these
//!   are the suite's only v1 bytes.
//! * `ba24.v2.pspc`, `ba24w.v2.pspc` — `PSPCIDX2` of the same two indexes.
//! * `er24.dir2.pspc` — `PSPCDIR2` of `erdos_renyi_digraph(24, 72, 1)`.
//! * `er24.dyn2.pspc` — `PSPCDYN2` of `erdos_renyi(24, 48, 1)`.
//! * `ba24w.sharded.pspc` and `.0000`–`.0003` — the weighted index sharded
//!   at 512 bytes: a `PSPCSHM1` manifest and four `PSPCSHD1` shard files.
//!
//! Every writer must reproduce its fixture byte for byte, so a format
//! change is always deliberate: it regenerates the fixture. Every reader
//! (copy, mmap, `open_sharded`, `sharded_to_owned`) must load its fixture
//! to an index equal to a fresh build.

use pspc_core::builder::{build_pspc, build_pspc_with_order};
use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
use pspc_core::serialize::{
    di_index_from_binary, di_index_to_binary, dyn_index_from_binary, dyn_index_to_binary,
    index_from_binary, index_to_binary, write_di_index_to, write_dyn_index_to, write_index_to,
    Bytes,
};
use pspc_core::shard::shard_file_path;
use pspc_core::{
    map_index_from_file, open_sharded, sharded_to_owned, write_sharded_index, DiSpcIndex,
    DynamicDistanceIndex, PspcConfig, SnapshotKind, SpcIndex,
};
use pspc_graph::digraph::erdos_renyi_digraph;
use pspc_graph::generators::{barabasi_albert, erdos_renyi};
use pspc_order::OrderingStrategy;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).join(name)
}

fn read(name: &str) -> Vec<u8> {
    std::fs::read(fixture(name)).unwrap()
}

fn ba24() -> SpcIndex {
    build_pspc(&barabasi_albert(24, 2, 1), &PspcConfig::default()).0
}

fn ba24_weighted() -> SpcIndex {
    let g = barabasi_albert(24, 2, 1);
    let w: Vec<u64> = (0..24).map(|i| 1 + i % 4).collect();
    let order = OrderingStrategy::Degree.compute(&g);
    build_pspc_with_order(&g, order, Some(&w), &PspcConfig::default()).0
}

fn er24_directed() -> DiSpcIndex {
    build_di_pspc(&erdos_renyi_digraph(24, 72, 1), &DiPspcConfig::default())
}

fn er24_dynamic() -> DynamicDistanceIndex {
    DynamicDistanceIndex::build(&erdos_renyi(24, 48, 1), OrderingStrategy::Degree)
}

/// The undirected fixtures and the fresh index each one holds.
fn undirected() -> [(&'static str, SpcIndex); 4] {
    [
        ("ba24.v1.pspc", ba24()),
        ("ba24.v2.pspc", ba24()),
        ("ba24w.v1.pspc", ba24_weighted()),
        ("ba24w.v2.pspc", ba24_weighted()),
    ]
}

/// Equality of everything a snapshot persists (build timings are not).
fn assert_same(got: &SpcIndex, want: &SpcIndex, what: &str) {
    assert_eq!(got.order(), want.order(), "{what}: order");
    assert_eq!(got.label_arena(), want.label_arena(), "{what}: labels");
    assert_eq!(got.weights(), want.weights(), "{what}: weights");
}

fn assert_same_directed(got: &DiSpcIndex, want: &DiSpcIndex) {
    assert_eq!(got.order(), want.order());
    assert_eq!(got.lin_arena(), want.lin_arena());
    assert_eq!(got.lout_arena(), want.lout_arena());
}

#[test]
fn writers_reproduce_every_fixture() {
    let (und, wt) = (ba24(), ba24_weighted());
    let (dir, dynix) = (er24_directed(), er24_dynamic());
    assert_eq!(index_to_binary(&und).to_vec(), read("ba24.v2.pspc"));
    assert_eq!(index_to_binary(&wt).to_vec(), read("ba24w.v2.pspc"));
    assert_eq!(di_index_to_binary(&dir).to_vec(), read("er24.dir2.pspc"));
    assert_eq!(dyn_index_to_binary(&dynix).to_vec(), read("er24.dyn2.pspc"));
    // The streaming writers emit the same bytes.
    let mut buf = Vec::new();
    write_index_to(&mut buf, &wt).unwrap();
    assert_eq!(buf, read("ba24w.v2.pspc"));
    buf.clear();
    write_di_index_to(&mut buf, &dir).unwrap();
    assert_eq!(buf, read("er24.dir2.pspc"));
    buf.clear();
    write_dyn_index_to(&mut buf, &dynix).unwrap();
    assert_eq!(buf, read("er24.dyn2.pspc"));

    let manifest = std::env::temp_dir().join(format!("pspc-golden-{}", std::process::id()));
    assert_eq!(write_sharded_index(&wt, &manifest, 512).unwrap(), 4);
    assert_eq!(
        std::fs::read(&manifest).unwrap(),
        read("ba24w.sharded.pspc")
    );
    std::fs::remove_file(&manifest).unwrap();
    for i in 0..4 {
        let shard = shard_file_path(&manifest, i);
        let want = read(&format!("ba24w.sharded.pspc.{i:04}"));
        assert_eq!(std::fs::read(&shard).unwrap(), want, "shard {i}");
        std::fs::remove_file(&shard).unwrap();
    }
}

#[test]
fn copying_readers_load_every_fixture() {
    for (name, want) in undirected() {
        let got = index_from_binary(Bytes::from(read(name))).unwrap();
        assert_same(&got, &want, name);
    }
    let got = di_index_from_binary(Bytes::from(read("er24.dir2.pspc"))).unwrap();
    assert_same_directed(&got, &er24_directed());
    let got = dyn_index_from_binary(Bytes::from(read("er24.dyn2.pspc"))).unwrap();
    let want = er24_dynamic();
    assert_eq!(got.order(), want.order());
    for r in 0..24 {
        assert_eq!(got.adj_of_rank(r), want.adj_of_rank(r), "rank {r}");
        assert_eq!(got.labels_of_rank(r), want.labels_of_rank(r), "rank {r}");
    }
}

#[test]
fn mapped_reader_loads_every_fixture() {
    for (name, want) in undirected() {
        match map_index_from_file(fixture(name)) {
            Ok(SnapshotKind::Undirected(got)) => {
                assert!(got.is_mapped(), "{name}");
                assert_same(&got, &want, name);
            }
            // v1 is per-entry encoded: the copying loader reads it.
            Err(e) if name.contains(".v1.") => {
                assert_eq!(e.kind(), std::io::ErrorKind::Unsupported, "{name}: {e}");
            }
            other => panic!("{name}: {other:?}"),
        }
    }
    let Ok(SnapshotKind::Directed(got)) = map_index_from_file(fixture("er24.dir2.pspc")) else {
        panic!("directed fixture must map");
    };
    assert_same_directed(&got, &er24_directed());
    let err = map_index_from_file(fixture("er24.dyn2.pspc")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
}

#[test]
fn sharded_readers_load_the_sharded_fixture() {
    let want = ba24_weighted();
    let manifest = fixture("ba24w.sharded.pspc");
    let owned = sharded_to_owned(&manifest).unwrap();
    assert_same(&owned, &want, "sharded_to_owned");
    let sharded = open_sharded(&manifest, 2).unwrap();
    assert_eq!(sharded.num_shards(), 4);
    assert_eq!(sharded.order(), want.order());
    assert_eq!(sharded.weights(), want.weights());
    for s in 0..24 {
        for t in 0..24 {
            assert_eq!(sharded.query(s, t), want.query(s, t), "({s},{t})");
        }
        assert!(sharded.resident_shards() <= 2);
    }
}
