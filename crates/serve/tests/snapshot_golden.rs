//! The snapshot a fleet writes for the shared trained tenant, pinned byte
//! for byte.
//!
//! `tests/data/trained_tenant_v3.ixh` is `Fleet::snapshot_bytes` of the
//! template tenant after `RUN_TICKS` ingested ticks. Every path that
//! produces snapshot bytes must reproduce it exactly, and adopting it
//! must warm a tenant that continues bit for bit like one that was never
//! evicted. Re-bless with `IX_SNAPSHOT_BLESS=1` only for an intended
//! snapshot format change (which also bumps `SNAPSHOT_VERSION`).
//!
//! `tests/data/trained_tenant_v2.ixh` is the same tenant written by the
//! previous version, which kept the run's ticks instead of its state. It
//! is never re-blessed: it decodes into the current image, and warms like
//! it.

mod common;

use std::sync::Arc;

use common::{started_fleet, template};
use ix_serve::{Fleet, TenantId, TenantSnapshot};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trained_tenant_v3.ixh"
);

/// The previous version's snapshot of the same tenant.
const GOLDEN_V2: &[u8] = include_bytes!("data/trained_tenant_v2.ixh");

/// Ticks of the pinned run.
const RUN_TICKS: usize = 8;
/// Ticks compared after the golden snapshot warms.
const NEXT_TICKS: usize = 16;

/// The template tenant with `RUN_TICKS` of its live run ingested.
fn tenant_with_run(tenant: &TenantId) -> Arc<Fleet> {
    let t = template();
    let fleet = started_fleet(tenant);
    for (cpi, row) in &t.ticks[..RUN_TICKS] {
        fleet.ingest(tenant, &t.context, *cpi, row).expect("ingest");
    }
    fleet
}

fn golden() -> Vec<u8> {
    std::fs::read(GOLDEN).expect("golden snapshot")
}

/// Asserts byte equality without dumping two 8 KB buffers on failure.
fn assert_golden(bytes: &[u8], golden: &[u8], what: &str) {
    assert_eq!(bytes.len(), golden.len(), "{what}: length");
    if let Some(at) = bytes.iter().zip(golden).position(|(a, b)| a != b) {
        panic!("{what}: first differing byte at {at}");
    }
}

#[test]
fn every_path_reproduces_the_golden_fleet_snapshot() {
    let tenant = TenantId::new("golden").expect("valid");
    let fleet = tenant_with_run(&tenant);
    let live = fleet.snapshot_bytes(&tenant).expect("snapshot");
    if std::env::var_os("IX_SNAPSHOT_BLESS").is_some() {
        std::fs::write(GOLDEN, &live).expect("bless golden snapshot");
    }
    let golden = golden();
    assert_golden(&live, &golden, "Fleet::snapshot_bytes");

    fleet.evict(&tenant).expect("evict");
    assert!(!fleet.is_warm(&tenant));
    let cold = fleet.snapshot_bytes(&tenant).expect("stored");
    assert_golden(&cold, &golden, "the bytes Fleet::evict stored");

    let reencoded = TenantSnapshot::from_bytes(&golden)
        .expect("parse")
        .to_bytes();
    assert_golden(&reencoded, &golden, "TenantSnapshot round trip");

    // The version-2 snapshot's tail replays, at decode, into the run the
    // live tenant holds: it re-encodes as the current golden, and a fleet
    // that adopted it serves those bytes too.
    let upgraded = TenantSnapshot::from_bytes(GOLDEN_V2).expect("parse v2");
    assert_golden(&upgraded.to_bytes(), &golden, "a decoded version 2");
    let adopter = Fleet::builder().build();
    adopter
        .adopt(tenant.clone(), GOLDEN_V2.to_vec())
        .expect("adopt v2");
    let served = adopter.snapshot_bytes(&tenant).expect("cold");
    assert_golden(&served, &golden, "an adopted version 2");
}

#[test]
fn the_golden_snapshot_warms_into_a_bit_identical_tenant() {
    assert_warms_bit_identically(&golden());
}

#[test]
fn the_version_2_snapshot_warms_into_a_bit_identical_tenant() {
    assert_warms_bit_identically(GOLDEN_V2);
}

/// Adopts and warms `bytes`, then runs the template's next ticks through
/// it and through the never-evicted source tenant.
fn assert_warms_bit_identically(bytes: &[u8]) {
    let t = template();
    let tenant = TenantId::new("golden").expect("valid");
    let source = tenant_with_run(&tenant);
    let fleet = Fleet::builder().build();
    fleet.adopt(tenant.clone(), bytes.to_vec()).expect("adopt");
    fleet.warm(&tenant).expect("warm");
    assert!(fleet.is_warm(&tenant));
    for (cpi, row) in &t.ticks[RUN_TICKS..RUN_TICKS + NEXT_TICKS] {
        let a = source
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("source");
        let b = fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("warmed");
        assert_eq!(a.tick, b.tick);
        assert_eq!(
            a.residual.to_bits(),
            b.residual.to_bits(),
            "tick {}",
            a.tick
        );
        assert_eq!((a.exceeded, a.anomalous), (b.exceeded, b.anomalous));
        assert_eq!(a.diagnosis, b.diagnosis, "tick {}", a.tick);
    }
}
