//! Count, don't time: machine-independent costs of the served tick,
//! pinned exactly.
//!
//! A counting global allocator tallies the allocations (and requested
//! bytes) of the calling thread only, so tests running in parallel and
//! the fleet's sweep workers never leak into a count. A pinned figure
//! changes only with a CHANGES.md line saying why.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{started_fleet, template};
use ix_core::{Diagnosis, ViolationTuple};
use ix_serve::wire::{self, BinaryPayload, IngestReply, IngestRequest, Op, RequestFrame};
use ix_serve::{handle_request, ServeError, TenantId};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count(size: usize) {
    // `try_with`: a thread being torn down has no counters left to bump.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            BYTES.with(|n| n.set(n.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only const-initialized
// thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f`, returning its result with the allocations and requested
/// bytes this thread made inside it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// Ticks sent before counting starts, so the tenant's window, run tail
/// and every buffer on the path have seen traffic.
const WARM_TICKS: usize = 8;
/// Ticks counted, all before the template run's fault shows.
const COUNTED_TICKS: usize = 16;

#[test]
fn warm_binary_ingest_allocations_and_bytes_are_pinned() {
    let t = template();
    let tenant = TenantId::new("counted").expect("valid");
    let fleet = started_fleet(&tenant);
    let bodies: Vec<Vec<u8>> = t.ticks[..WARM_TICKS + COUNTED_TICKS]
        .iter()
        .map(|(cpi, row)| {
            wire::encode_request(&RequestFrame {
                tenant: tenant.clone(),
                op: Op::Ingest,
                payload: wire::encode_binary(&IngestRequest {
                    node: t.context.node.clone(),
                    workload: t.context.workload.clone(),
                    cpi: *cpi,
                    row: row.clone(),
                }),
            })
        })
        .collect();
    for body in &bodies[..WARM_TICKS] {
        let request = wire::decode_request(body).expect("decode request");
        assert_eq!(handle_request(&fleet, &request).0, 0);
    }

    // Allocations of each layer, summed over the counted ticks.
    let (mut decode, mut handle, mut encode) = (0, 0, 0);
    let mut responses = Vec::with_capacity(COUNTED_TICKS);
    for body in &bodies[WARM_TICKS..] {
        let (request, n, _) = counted(|| wire::decode_request(body).expect("decode request"));
        decode += n;
        let ((status, payload), n, _) = counted(|| handle_request(&fleet, &request));
        handle += n;
        let (response, n, _) = counted(|| wire::encode_response(status, &payload));
        encode += n;
        assert_eq!(status, 0, "{}", String::from_utf8_lossy(&payload));
        let reply: IngestReply = wire::decode_binary(&payload).expect("binary reply");
        assert!(reply.diagnosis.is_none(), "a counted tick diagnosed");
        responses.push(response);
    }

    let request_bytes = bodies[WARM_TICKS].len();
    let reply_bytes = responses[0].len();
    assert!(bodies[WARM_TICKS..]
        .iter()
        .all(|b| b.len() == request_bytes));
    assert!(responses.iter().all(|r| r.len() == reply_bytes));
    // Per tick: the frame decode copies the tenant id and the payload
    // (2); the handler's 9.5 are the payload's node, workload and row
    // (3), the fleet tick (which finds the tenant's context without
    // building its key) and a fresh reply buffer's growth; the response
    // encode allocates its body (1).
    assert_eq!(
        (decode, handle, encode),
        (32, 152, 16),
        "allocations of decode_request, handle_request and encode_response \
         over {COUNTED_TICKS} warm ticks"
    );
    // Version, op, tenant length, "counted", payload length, then the
    // payload: tag, node and workload strings, cpi, row count, 26 values.
    assert_eq!(request_bytes, 266, "binary Ingest request body bytes");
    // Version, status, payload length, then the payload: tag, tick,
    // residual, exceeded, anomalous, no diagnosis.
    assert_eq!(reply_bytes, 27, "binary Ingest reply body bytes");
}

#[test]
fn trained_tenant_snapshot_bytes_are_pinned() {
    let tenant = TenantId::new("sized").expect("valid");
    let fleet = started_fleet(&tenant);
    let bytes = fleet.snapshot_bytes(&tenant).expect("snapshot");
    // The template's models, invariants and two signatures, and an empty
    // run tail: the machine-independent form of `perf`'s serve-section
    // `snapshot_bytes`.
    assert_eq!(bytes.len(), 7719, "trained tenant snapshot bytes");
}

/// Sets the little-endian `u32` at `at` to `u32::MAX`.
fn inflate(bytes: &mut [u8], at: usize) {
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
}

#[test]
fn inflated_counts_and_lengths_are_refused_before_allocating() {
    let request = wire::encode_binary(&IngestRequest {
        node: "n".to_string(),
        workload: "w".to_string(),
        cpi: 1.0,
        row: vec![0.5; 26],
    });
    // Tag (1), node length (4) + "n", workload length (4) + "w", cpi (8),
    // then the row count.
    let row_count_at = 1 + 5 + 5 + 8;
    let mut inflated_row = request.clone();
    inflate(&mut inflated_row, row_count_at);
    let mut inflated_node = request.clone();
    inflate(&mut inflated_node, 1);

    let diagnosis = wire::encode_binary(&Diagnosis {
        ranked: vec![],
        tuple: ViolationTuple::from_graded(vec![0.0; 4]),
        degradation: None,
    });
    let mut inflated_causes = diagnosis.clone();
    inflate(&mut inflated_causes, 1);
    let mut inflated_tuple = diagnosis;
    inflate(&mut inflated_tuple, 5);

    refused_without_allocating::<IngestRequest>("row count", &inflated_row);
    refused_without_allocating::<IngestRequest>("node length", &inflated_node);
    refused_without_allocating::<Diagnosis>("cause count", &inflated_causes);
    refused_without_allocating::<Diagnosis>("tuple count", &inflated_tuple);
}

fn refused_without_allocating<T: BinaryPayload>(what: &str, bytes: &[u8]) {
    let (result, _, allocated) = counted(|| wire::decode_binary::<T>(bytes));
    assert!(
        matches!(result, Err(ServeError::Protocol(_))),
        "an inflated {what} decoded"
    );
    // Only the error message is allocated, never the claimed size.
    assert!(
        allocated < 1024,
        "an inflated {what} allocated {allocated} bytes before it was refused"
    );
}
