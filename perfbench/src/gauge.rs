//! A fixed piece of work of the benchmark's own, timed between the
//! requests of a run to gauge how fast the host lets the CPU go.
//!
//! The host's other guests slow this 2-vCPU KVM guest for seconds to
//! minutes at a time, both vCPUs or one: a loopback round trip between
//! two threads on one vCPU took 9 us of CPU at one moment and 16 us a few
//! seconds later, and the median tick of a run went from 28 us to 50 us
//! with it, on the same build and seed. So each run times this gauge
//! alongside its requests and reports its CPU times scaled to the pace
//! of a reference host (see [`REFERENCE_NS`]).
//!
//! The gauge shares no code with the program, so no change to the
//! program moves what it costs: only the host does. It mixes two kinds of
//! work a request does: loopback round trips between two threads, as a
//! request and its reply make between client and server, and
//! ordered-map inserts, for the engine's own work. Of the simple kernels
//! tried (round trips, map inserts, random walks over 1 MiB and 16 MiB,
//! floating-point arithmetic), these two followed the program's pace
//! most closely from one half-second to the next. None follows it
//! exactly: in slow spells the round trips slowed by 1.4x to 1.8x, the
//! inserts by 1.1x to 1.5x, and the requests of this benchmark by
//! 1.2x to 1.8x, so the gauge takes out most of a spell, not all of it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;

use crate::cpu;

/// What the gauge costs on a quiet host: the median of its CPU time on a
/// 2-vCPU KVM guest of a Xeon host at a quiet moment. Only the ratio of
/// two runs' figures carries meaning, and it does not depend on this.
pub const REFERENCE_NS: f64 = 2.0e6;

/// Round trips of one measurement.
const ROUND_TRIPS: usize = 100;

/// Bytes each way of a round trip, about a tick's request.
const FRAME: usize = 200;

/// Ordered-map inserts of one measurement.
const INSERTS: u64 = 8_000;

pub struct Gauge {
    client: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Gauge {
    /// Connects the gauge's client to an echo thread of its own. The echo
    /// thread runs on the CPUs the calling thread may run on.
    pub fn new() -> std::io::Result<Gauge> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        for stream in [&client, &server] {
            stream.set_nodelay(true)?;
        }
        let echo = std::thread::Builder::new()
            .name("perfbench-gauge".into())
            .spawn(move || echo(server))?;
        Ok(Gauge {
            client,
            echo: Some(echo),
        })
    }

    /// Does the gauge's work once and returns the process CPU nanoseconds
    /// it took.
    pub fn measure(&mut self) -> u64 {
        let started = cpu::process_ns();
        let mut frame = [0u8; FRAME];
        for _ in 0..ROUND_TRIPS {
            self.client.write_all(&frame).expect("gauge send");
            self.client.read_exact(&mut frame).expect("gauge reply");
        }
        let mut map = BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..INSERTS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert(x >> 20, i);
        }
        std::hint::black_box(map.values().sum::<u64>());
        cpu::process_ns() - started
    }
}

impl Drop for Gauge {
    /// Closes the connection and waits for the echo thread to end.
    fn drop(&mut self) {
        let _ = self.client.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Sends back whatever arrives until the peer closes.
fn echo(mut stream: TcpStream) {
    let mut buf = [0u8; FRAME];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                if stream.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
        }
    }
}
