//! The in-place section reader against the store loader.
//!
//! `ix_history::section_in` is the parse behind `HistoryStore::from_bytes`
//! with the trailing sections kept as slices of the input. Over every
//! truncation and byte flip of the committed fleet snapshot, and of an
//! image carrying both an `RPLY` and an `SRVT` section, the two must
//! refuse the same inputs with the same error and, where they accept,
//! return the same payload bytes.

use ix_history::{section_in, HistoryStore, REPLAY_SECTION, SERVE_SECTION};

const GOLDEN: &[u8] = include_bytes!("data/trained_tenant_v2.ixh");

/// Asserts the borrowed reader and the loader agree on `bytes` for
/// every tag in `tags`.
fn agree(bytes: &[u8], tags: &[[u8; 4]], what: &str) {
    let loaded = HistoryStore::from_bytes(bytes);
    for &tag in tags {
        match (section_in(bytes, tag), &loaded) {
            (Ok(borrowed), Ok(store)) => assert_eq!(
                borrowed.map(<[u8]>::to_vec),
                store.section(tag),
                "{what}: the payloads under {tag:?} differ"
            ),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{what}: the two refuse it differently"
            ),
            (a, b) => panic!(
                "{what}: section_in gave {:?}, from_bytes {}",
                a.map(|s| s.map(<[u8]>::len)),
                if b.is_ok() { "a store" } else { "an error" }
            ),
        }
    }
}

/// Every truncation and every byte flip (one bit, all bits) of `bytes`.
fn agree_on_every_mutation(bytes: &[u8], tags: &[[u8; 4]]) {
    agree(bytes, tags, "the intact image");
    for len in 0..bytes.len() {
        agree(&bytes[..len], tags, &format!("truncation to {len} bytes"));
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01, 0xff] {
            damaged[at] ^= mask;
            agree(&damaged, tags, &format!("byte {at} ^ {mask:#04x}"));
            damaged[at] ^= mask;
        }
    }
}

#[test]
fn the_section_reader_agrees_with_the_loader_on_a_damaged_snapshot() {
    let payload = section_in(GOLDEN, SERVE_SECTION)
        .expect("intact")
        .expect("SRVT");
    assert_eq!(
        HistoryStore::from_bytes(GOLDEN)
            .expect("intact")
            .section(SERVE_SECTION)
            .as_deref(),
        Some(payload)
    );
    agree_on_every_mutation(GOLDEN, &[SERVE_SECTION]);
}

#[test]
fn the_section_reader_agrees_with_the_loader_on_two_sections() {
    let serve = section_in(GOLDEN, SERVE_SECTION)
        .expect("intact")
        .expect("SRVT");
    let image = HistoryStore::builder()
        .section(REPLAY_SECTION, b"a replay header".to_vec())
        .section(SERVE_SECTION, serve.to_vec())
        .build()
        .to_bytes();
    assert_eq!(
        section_in(&image, REPLAY_SECTION).expect("intact"),
        Some(&b"a replay header"[..])
    );
    agree_on_every_mutation(&image, &[REPLAY_SECTION, SERVE_SECTION]);
}
