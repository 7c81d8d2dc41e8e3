//! `IXSRV01` end-to-end over loopback TCP: a [`ServeClient`] driving a
//! [`ServerHandle`] must see exactly what a direct [`Fleet`] caller sees
//! — same tick outcomes, same diagnoses, same stable error statuses.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{started_fleet, template};
use ix_core::{Engine, InvarNetConfig};
use ix_serve::{
    handle_request, wire, ServeClient, ServeError, ServerHandle, TenantId, TenantSnapshot,
    STATUS_UNKNOWN_TENANT,
};

#[test]
fn wire_ingest_matches_a_direct_twin_and_diagnoses_cross_back() {
    let t = template();
    let tenant = TenantId::new("wired").expect("valid");
    let fleet = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let twin = Engine::builder().config(InvarNetConfig::default()).build();
    twin.load_state(&t.store).expect("twin load");

    let mut wire_diagnoses = 0;
    for (cpi, row) in &t.ticks {
        let reply = client
            .ingest(&tenant, &t.context.node, &t.context.workload, *cpi, row)
            .expect("wire ingest");
        let direct = twin.ingest(&t.context, *cpi, row).expect("twin ingest");
        assert_eq!(reply.tick, direct.tick as u64);
        assert_eq!(reply.residual.to_bits(), direct.residual.to_bits());
        assert_eq!(reply.exceeded, direct.exceeded);
        assert_eq!(reply.anomalous, direct.anomalous);
        assert_eq!(reply.diagnosis, direct.diagnosis);
        if reply.diagnosis.is_some() {
            wire_diagnoses += 1;
        }
    }
    assert!(
        wire_diagnoses > 0,
        "the fault run must diagnose over the wire"
    );

    // On-demand diagnosis over the current window works over the wire too.
    let diagnosis = client
        .diagnose(&tenant, &t.context.node, &t.context.workload)
        .expect("wire diagnose");
    assert!(!diagnosis.ranked.is_empty());

    // Health reflects the tenant and its ingested ticks.
    let health = client.health(&tenant).expect("health");
    assert_eq!(health.tenants, 1);
    assert_eq!(health.warm, 1);
    assert_eq!(health.ticks, t.ticks.len() as u64);

    // The snapshot fetched over the wire is a parseable tenant snapshot.
    let bytes = client.snapshot(&tenant).expect("snapshot");
    let snapshot = TenantSnapshot::from_bytes(&bytes).expect("parse");
    assert_eq!(snapshot.lifetime_ticks, t.ticks.len() as u64);

    server.stop();
}

#[test]
fn unknown_tenants_and_engine_errors_cross_as_stable_statuses() {
    let tenant = TenantId::new("statusy").expect("valid");
    let fleet = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // Unknown tenant → serve-range status.
    let ghost = TenantId::new("ghost").expect("valid");
    let err = client.snapshot(&ghost).expect_err("unknown tenant");
    match err {
        ServeError::Status { code, .. } => assert_eq!(code, STATUS_UNKNOWN_TENANT),
        other => panic!("expected a status error, got {other}"),
    }

    // An untrained context → the engine's stable MissingModel code (1).
    let err = client
        .ingest(&tenant, "10.9.9.9", "Sort", 1.0, &[0.0; 26])
        .expect_err("no model");
    match err {
        ServeError::Status { code, .. } => {
            assert_eq!(
                ServeError::engine_code(code),
                Some(ix_core::ErrorCode::MissingModel)
            );
        }
        other => panic!("expected a status error, got {other}"),
    }

    server.stop();
}

#[test]
fn malformed_frames_get_error_responses_not_hangs() {
    let tenant = TenantId::new("proto").expect("valid");
    let fleet = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // A frame whose body claims protocol version 9.
    let body = [9u8, 0, 0, 0, 0, 0, 0, 0];
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(&body).expect("body");
    let response = wire::read_frame(&mut stream, 1 << 20)
        .expect("read")
        .expect("response");
    let (status, _payload) = wire::decode_response(&response).expect("decode");
    assert_eq!(status, 101, "unsupported version is status 101");

    server.stop();
}

/// The frame body of a binary Ingest request for the template context.
fn ingest_body(tenant: &TenantId, cpi: f64, row: &[f64]) -> Vec<u8> {
    let t = template();
    wire::encode_request(&wire::RequestFrame {
        tenant: tenant.clone(),
        op: wire::Op::Ingest,
        payload: wire::encode_binary(&wire::IngestRequest {
            node: t.context.node.clone(),
            workload: t.context.workload.clone(),
            cpi,
            row: row.to_vec(),
        }),
    })
}

#[test]
fn a_frame_stalled_past_the_read_timeout_still_gets_its_reply() {
    let t = template();
    let tenant = TenantId::new("stalled").expect("valid");
    let fleet = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");

    // Half a prefix, a stall, the rest of the prefix and half the body,
    // another stall, then the rest: each stall outlasts the server's
    // 200 ms read timeout.
    let (cpi, row) = &t.ticks[0];
    let body = ingest_body(&tenant, *cpi, row);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    let half = 4 + body.len() / 2;
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for piece in [&frame[..2], &frame[2..half], &frame[half..]] {
        stream.write_all(piece).expect("write");
        std::thread::sleep(Duration::from_millis(400));
    }
    let response = wire::read_frame(&mut stream, 1 << 20)
        .expect("read")
        .expect("response");
    let (status, payload) = wire::decode_response(&response).expect("decode");
    assert_eq!(status, 0, "{}", String::from_utf8_lossy(&payload));
    let reply: wire::IngestReply = wire::decode_binary(&payload).expect("binary reply");

    let twin = Engine::builder().config(InvarNetConfig::default()).build();
    twin.load_state(&t.store).expect("twin load");
    let direct = twin.ingest(&t.context, *cpi, row).expect("twin ingest");
    assert_eq!(reply.tick, direct.tick as u64);
    assert_eq!(reply.residual.to_bits(), direct.residual.to_bits());

    // The connection is still in step: a second request round-trips.
    let mut client_side = stream;
    wire::write_frame(
        &mut client_side,
        &ingest_body(&tenant, t.ticks[1].0, &t.ticks[1].1),
    )
    .expect("write");
    let response = wire::read_frame(&mut client_side, 1 << 20)
        .expect("read")
        .expect("response");
    assert_eq!(wire::decode_response(&response).expect("decode").0, 0);

    server.stop();
}

#[test]
fn stop_returns_promptly_while_a_client_holds_a_half_sent_frame() {
    let t = template();
    let tenant = TenantId::new("half-sent").expect("valid");
    let fleet = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");

    // One whole request first: once it is answered, the accept thread is
    // serving this connection.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let (cpi, row) = &t.ticks[0];
    wire::write_frame(&mut stream, &ingest_body(&tenant, *cpi, row)).expect("write");
    let response = wire::read_frame(&mut stream, 1 << 20)
        .expect("read")
        .expect("response");
    assert_eq!(wire::decode_response(&response).expect("decode").0, 0);
    let (cpi, row) = &t.ticks[1];
    let body = ingest_body(&tenant, *cpi, row);
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream
        .write_all(&body[..body.len() / 2])
        .expect("half a body");

    // Stop from another thread, so a stop that hangs fails the test
    // instead of hanging it.
    let (stopped, on_stop) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = stopped.send(());
    });
    assert!(
        on_stop.recv_timeout(Duration::from_secs(2)).is_ok(),
        "stop did not return within 2 s with a half-sent frame outstanding"
    );
    stopper.join().expect("stopper thread");
    drop(stream);
}

#[test]
fn non_finite_values_over_binary_are_refused_and_leave_no_trace() {
    let t = template();
    let tenant = TenantId::new("non-finite").expect("valid");
    let fleet = started_fleet(&tenant);
    let twin = started_fleet(&tenant);
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let (node, workload) = (&t.context.node, &t.context.workload);

    for (cpi, row) in &t.ticks[..8] {
        client
            .ingest(&tenant, node, workload, *cpi, row)
            .expect("wire ingest");
        twin.ingest(&tenant, &t.context, *cpi, row)
            .expect("twin ingest");
    }

    // Raw bits carry NaN and ∞ to the engine, which refuses them with
    // its stable codes: a bad CPI sample is NonFiniteCpi (12), a bad row
    // value a frame error.
    let (cpi, row) = &t.ticks[8];
    let status = |result: Result<_, ServeError>| match result {
        Err(ServeError::Status { code, .. }) => ServeError::engine_code(code),
        Err(other) => panic!("expected a status error, got {other}"),
        Ok(_) => panic!("a non-finite tick was accepted"),
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            status(client.ingest(&tenant, node, workload, bad, row)),
            Some(ix_core::ErrorCode::NonFiniteCpi)
        );
        let mut bad_row = row.clone();
        bad_row[3] = bad;
        assert_eq!(
            status(client.ingest(&tenant, node, workload, *cpi, &bad_row)),
            Some(ix_core::ErrorCode::Frame)
        );
    }

    // Neither the snapshot nor the next tick shows the refused ones.
    assert_eq!(
        client.snapshot(&tenant).expect("snapshot"),
        twin.snapshot_bytes(&tenant).expect("twin snapshot")
    );
    let reply = client
        .ingest(&tenant, node, workload, *cpi, row)
        .expect("wire ingest");
    let direct = twin
        .ingest(&tenant, &t.context, *cpi, row)
        .expect("twin ingest");
    assert_eq!(reply.tick, direct.tick as u64);
    assert_eq!(reply.residual.to_bits(), direct.residual.to_bits());
    assert_eq!(
        (reply.exceeded, reply.anomalous, &reply.diagnosis),
        (direct.exceeded, direct.anomalous, &direct.diagnosis)
    );
    assert_eq!(
        client.snapshot(&tenant).expect("snapshot"),
        twin.snapshot_bytes(&tenant).expect("twin snapshot")
    );

    server.stop();
}

#[test]
fn json_payloads_get_json_replies_and_binary_payloads_binary_ones() {
    let t = template();
    let tenant = TenantId::new("compat").expect("valid");
    let json_fleet = started_fleet(&tenant);
    let binary_fleet = started_fleet(&tenant);
    for (cpi, row) in &t.ticks {
        let request = wire::IngestRequest {
            node: t.context.node.clone(),
            workload: t.context.workload.clone(),
            cpi: *cpi,
            row: row.clone(),
        };
        let frame = |payload| wire::RequestFrame {
            tenant: tenant.clone(),
            op: wire::Op::Ingest,
            payload,
        };
        let json = serde_json::to_string(&request).expect("encode");
        let (status, reply) = handle_request(&json_fleet, &frame(json.into_bytes()));
        assert_eq!(status, 0);
        let from_json: wire::IngestReply =
            serde_json::from_str(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON reply");
        let (status, reply) = handle_request(&binary_fleet, &frame(wire::encode_binary(&request)));
        assert_eq!(status, 0);
        assert_eq!(reply[0], wire::BINARY_TAG);
        let from_binary: wire::IngestReply = wire::decode_binary(&reply).expect("binary reply");
        assert_eq!(from_json, from_binary);
        assert_eq!(from_json.residual.to_bits(), from_binary.residual.to_bits());
    }
}
