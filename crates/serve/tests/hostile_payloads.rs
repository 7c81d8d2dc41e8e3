//! Hostile bytes against the `IXSRV01` decoders: every truncation and
//! every single-byte change of golden frames and binary payloads must
//! decode to a typed error or to a value that re-encodes to exactly the
//! bytes given — never to a panic, and never to a different encoding.

use ix_core::{
    DegradationReason, DegradationTier, Diagnosis, RankedCause, SweepDegradation, ViolationTuple,
};
use ix_serve::wire::{
    self, BinaryPayload, DiagnoseRequest, DrainReply, DrainRequest, IngestReply, IngestRequest, Op,
    RequestFrame,
};
use ix_serve::{ServeError, TenantId};

/// Every truncation of `golden`, then every byte of it replaced by each
/// of the 255 other values.
fn mutations(golden: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncations = (0..golden.len()).map(|cut| golden[..cut].to_vec());
    let flips = (0..golden.len()).flat_map(move |at| {
        (0..=u8::MAX)
            .filter(move |&v| v != golden[at])
            .map(move |v| {
                let mut bytes = golden.to_vec();
                bytes[at] = v;
                bytes
            })
    });
    truncations.chain(flips)
}

/// Decodes every mutation of `value`'s encoding as a `T`.
fn hammer<T: BinaryPayload>(what: &str, value: &T) {
    let golden = wire::encode_binary(value);
    assert!(
        wire::decode_binary::<T>(&golden).is_ok(),
        "golden {what} decodes"
    );
    let (mut refused, mut decoded) = (0, 0);
    for bytes in mutations(&golden) {
        match wire::decode_binary::<T>(&bytes) {
            Ok(back) => {
                assert_eq!(
                    wire::encode_binary(&back),
                    bytes,
                    "a mutated {what} decoded but re-encoded differently"
                );
                decoded += 1;
            }
            Err(ServeError::Protocol(_)) => refused += 1,
            Err(other) => panic!("a mutated {what} failed with an untyped error: {other}"),
        }
    }
    // Truncations always fail, so something was refused; changed float
    // bits always decode, so something was accepted.
    assert!(refused >= golden.len(), "{what}: only {refused} refusals");
    assert!(decoded > 0, "{what}: nothing decoded");
}

fn diagnosis() -> Diagnosis {
    Diagnosis {
        ranked: vec![
            RankedCause {
                problem: "Mem-hog".to_string(),
                similarity: 0.981,
            },
            RankedCause {
                problem: "CPU-hog".to_string(),
                similarity: 0.25,
            },
        ],
        tuple: ViolationTuple::from_graded(vec![0.0, 0.42, 0.0, 1.5, 0.07]),
        degradation: Some(SweepDegradation {
            tier: DegradationTier::PartialMatrix,
            reason: DegradationReason::WallClockExceeded,
        }),
    }
}

#[test]
fn mutated_requests_are_refused_or_re_encode_exactly() {
    hammer(
        "Ingest request",
        &IngestRequest {
            node: "10.0.0.7".to_string(),
            workload: "Wordcount".to_string(),
            cpi: 1.25,
            row: (0..26).map(|i| f64::from(i) * 0.5 - 3.0).collect(),
        },
    );
    hammer("Drain request", &DrainRequest { max_ticks: 64 });
    hammer(
        "Diagnose request",
        &DiagnoseRequest {
            node: "10.0.0.7".to_string(),
            workload: "Wordcount".to_string(),
        },
    );
}

#[test]
fn mutated_replies_are_refused_or_re_encode_exactly() {
    let quiet = IngestReply {
        tick: 41,
        residual: 0.0625,
        exceeded: false,
        anomalous: false,
        diagnosis: None,
    };
    hammer("Ingest reply", &quiet);
    hammer(
        "onset Ingest reply",
        &IngestReply {
            exceeded: true,
            anomalous: true,
            diagnosis: Some(diagnosis()),
            ..quiet
        },
    );
    hammer("Diagnose reply", &diagnosis());
    hammer(
        "Drain reply",
        &DrainReply {
            drained: 3,
            errors: 1,
        },
    );
}

#[test]
fn mutated_frames_are_refused_or_re_encode_exactly() {
    let request = wire::encode_request(&RequestFrame {
        tenant: TenantId::new("acme").expect("valid"),
        op: Op::Diagnose,
        payload: wire::encode_binary(&DrainRequest { max_ticks: 1 }),
    });
    for bytes in mutations(&request) {
        match wire::decode_request(&bytes) {
            Ok(frame) => assert_eq!(wire::encode_request(&frame), bytes),
            Err(ServeError::Protocol(_) | ServeError::Version(_) | ServeError::UnknownOp(_)) => {}
            Err(other) => panic!("a mutated request frame failed with {other}"),
        }
    }
    let response = wire::encode_response(0, &wire::encode_binary(&diagnosis()));
    for bytes in mutations(&response) {
        match wire::decode_response(&bytes) {
            Ok((status, payload)) => assert_eq!(wire::encode_response(status, &payload), bytes),
            Err(ServeError::Protocol(_) | ServeError::Version(_)) => {}
            Err(other) => panic!("a mutated response frame failed with {other}"),
        }
    }
}
