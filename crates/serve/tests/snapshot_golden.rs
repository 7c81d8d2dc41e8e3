//! The snapshot a fleet writes for the shared trained tenant, pinned byte
//! for byte.
//!
//! `tests/data/trained_tenant_v2.ixh` is `Fleet::snapshot_bytes` of the
//! template tenant after `TAIL_TICKS` ingested ticks. Every path that
//! produces snapshot bytes must reproduce it exactly, and adopting it
//! must warm a tenant that continues bit for bit like one that was never
//! evicted. Re-bless with `IX_SNAPSHOT_BLESS=1` only for an intended
//! snapshot format change (which also bumps `SNAPSHOT_VERSION`).

mod common;

use std::sync::Arc;

use common::{started_fleet, template};
use ix_serve::{Fleet, TenantId, TenantSnapshot};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trained_tenant_v2.ixh"
);

/// Ticks in the pinned run tail.
const TAIL_TICKS: usize = 8;
/// Ticks compared after the golden snapshot warms.
const NEXT_TICKS: usize = 16;

/// The template tenant with `TAIL_TICKS` of its live run ingested.
fn tenant_with_tail(tenant: &TenantId) -> Arc<Fleet> {
    let t = template();
    let fleet = started_fleet(tenant);
    for (cpi, row) in &t.ticks[..TAIL_TICKS] {
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
    let fleet = tenant_with_tail(&tenant);
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
}

#[test]
fn the_golden_snapshot_warms_into_a_bit_identical_tenant() {
    let t = template();
    let tenant = TenantId::new("golden").expect("valid");
    let source = tenant_with_tail(&tenant);
    let fleet = Fleet::builder().build();
    fleet.adopt(tenant.clone(), golden()).expect("adopt");
    fleet.warm(&tenant).expect("warm");
    assert!(fleet.is_warm(&tenant));
    for (cpi, row) in &t.ticks[TAIL_TICKS..TAIL_TICKS + NEXT_TICKS] {
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
