//! The closed-loop schedule every run drives, and the transports it
//! drives it through.
//!
//! Each step ticks the next active tenant in turn (every `wake_every`-th
//! step wakes the next dormant tenant instead), asks for a diagnosis when
//! the plan says so, and checks every reply against the reference. A
//! tenant whose job is over starts its next job first. Only requests are
//! timed; starting a job is not part of the tick path.
//!
//! Every request is timed twice: by the wall clock, and by the CPU time
//! the whole process spent on it (see `cpu`). A diagnosis is followed by
//! an empty drain of the same tenant, a fence inside its timing: the
//! server answers the drain only once it is done with the diagnosis, so
//! what the diagnosis costs after its reply is charged to it and not to
//! the tick after it. Without the fence, when every tick was followed by
//! a diagnosis, the median tick CPU time on `platform_incidents` moved
//! from 164 to 197 us between two runs of one seed.

use std::time::{Duration, Instant};

use ix_core::{Diagnosis, OperationContext};
use ix_serve::wire::IngestReply;
use ix_serve::{Fleet, ServeClient, ServeError, TenantId};

use crate::cpu;
use crate::gauge::{self, Gauge};
use crate::inputs::Inputs;
use crate::setup::{Plan, Tenant, Tenants};

/// How requests reach the fleet.
pub trait Transport {
    fn ingest(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
        cpi: f64,
        row: &[f64],
    ) -> Result<IngestReply, ServeError>;

    fn diagnose(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
    ) -> Result<Diagnosis, ServeError>;

    /// Returns once the fleet has finished with every earlier request.
    fn fence(&mut self, _tenant: &TenantId) {}

    /// Warm-up is over: forget what was observed so far.
    fn start_measuring(&mut self) {}
}

impl Transport for ServeClient {
    fn ingest(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
        cpi: f64,
        row: &[f64],
    ) -> Result<IngestReply, ServeError> {
        ServeClient::ingest(self, tenant, &context.node, &context.workload, cpi, row)
    }

    fn diagnose(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
    ) -> Result<Diagnosis, ServeError> {
        ServeClient::diagnose(self, tenant, &context.node, &context.workload)
    }

    fn fence(&mut self, tenant: &TenantId) {
        self.drain(tenant, 0).expect("an empty drain");
    }
}

/// The kinds of request a step sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    /// A tick for a tenant that is warm when it is sent.
    WarmTick,
    /// A tick for an evicted tenant, which the fleet warms first.
    ColdTick,
    /// An on-demand diagnosis, or a tick that triggers an onset diagnosis:
    /// either way the tenant gets a diagnosis, and its cost is mostly the
    /// diagnosis's.
    Diagnose,
}

/// What answered requests of one kind cost, each in wall-clock and in
/// process CPU nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_ns: Vec<u64>,
    pub cpu_ns: Vec<u64>,
}

impl Samples {
    fn push(&mut self, (wall, cpu): (u64, u64)) {
        self.wall_ns.push(wall);
        self.cpu_ns.push(cpu);
    }

    pub fn sort(&mut self) {
        self.wall_ns.sort_unstable();
        self.cpu_ns.sort_unstable();
    }
}

/// What the requests of one stretch of a run cost.
#[derive(Debug, Default)]
pub struct Costs {
    /// Every tick, cold or warm, that triggers no diagnosis.
    pub ticks: Samples,
    /// Those of them for evicted tenants.
    pub cold_ticks: Samples,
    /// On-demand diagnoses and ticks that trigger one.
    pub diagnoses: Samples,
    /// What the host gauge cost when the stretch began (see `gauge`).
    pub gauge_ns: u64,
}

impl Costs {
    fn extend(&mut self, other: &Costs) {
        for (into, from) in [
            (&mut self.ticks, &other.ticks),
            (&mut self.cold_ticks, &other.cold_ticks),
            (&mut self.diagnoses, &other.diagnoses),
        ] {
            into.wall_ns.extend_from_slice(&from.wall_ns);
            into.cpu_ns.extend_from_slice(&from.cpu_ns);
        }
    }

    fn starting(gauge: &mut Gauge) -> Costs {
        Costs {
            gauge_ns: gauge.measure(),
            ..Costs::default()
        }
    }

    pub fn sort(&mut self) {
        self.ticks.sort();
        self.cold_ticks.sort();
        self.diagnoses.sort();
    }
}

/// Length of the stretches a measured window is cut into, each of which
/// starts with a measurement of the host gauge.
///
/// Other guests of the host slow the benchmark's CPU for a stretch at a
/// time: with another process busy on the second vCPU, the median CPU
/// time of the ticks of consecutive 0.7-second stretches went 29, 45, 31,
/// 29 us and so on, against 26 to 28 us with the vCPU idle. The figures
/// of a run are taken at the pace of its quiet stretches (see
/// [`Tally::at_reference_pace`]).
pub const BLOCK: Duration = Duration::from_millis(500);

/// What one run observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// What measured requests cost, one entry per `BLOCK` of the window.
    pub blocks: Vec<Costs>,
    /// Measured requests sent.
    pub attempted: u64,
    /// Measured requests answered with an error.
    pub failed: u64,
    /// Replies that differ from the reference, and warm-up failures.
    pub wrong: u64,
    /// Wall-clock length of the measured window.
    pub measured_s: f64,
}

impl Tally {
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed == 0
    }

    /// The costs of the whole window.
    pub fn all(&self) -> Costs {
        let mut all = Costs::default();
        for block in &self.blocks {
            all.extend(block);
        }
        all
    }

    /// The CPU costs of the whole window at the pace of its quiet blocks,
    /// scaled to the reference host's pace.
    ///
    /// Every block serves the same mix of requests, since tenants tick in
    /// turn from evenly spread job positions, so the blocks differ by how
    /// fast the host lets the CPU go more than by what they ask of it. A
    /// block's pace is the median CPU time of its ticks; the quiet pace is
    /// the lower quartile of the blocks' paces, and every CPU time of a
    /// block is scaled by the quiet pace over the block's. Then every CPU
    /// time is scaled by [`gauge::REFERENCE_NS`] over the median gauge of
    /// the quiet blocks, for runs that the host slows throughout.
    /// Wall-clock times are left as measured.
    pub fn at_reference_pace(&self) -> Costs {
        let paced: Vec<(&Costs, u64)> = self
            .blocks
            .iter()
            .filter(|b| !b.ticks.cpu_ns.is_empty())
            .map(|b| {
                let mut cpu = b.ticks.cpu_ns.clone();
                cpu.sort_unstable();
                (b, cpu[cpu.len() / 2].max(1))
            })
            .collect();
        let mut paces: Vec<u64> = paced.iter().map(|&(_, pace)| pace).collect();
        paces.sort_unstable();
        let mut scaled = Costs::default();
        let Some(&quiet_pace) = paces.get(paces.len() / 4) else {
            return scaled;
        };
        let mut quiet_gauge: Vec<u64> = paced
            .iter()
            .filter(|&&(_, pace)| pace <= quiet_pace)
            .map(|(b, _)| b.gauge_ns.max(1))
            .collect();
        quiet_gauge.sort_unstable();
        let host = gauge::REFERENCE_NS / quiet_gauge[quiet_gauge.len() / 2] as f64;
        for (block, pace) in paced {
            let scale = host * quiet_pace as f64 / pace as f64;
            for (into, from) in [
                (&mut scaled.ticks, &block.ticks),
                (&mut scaled.cold_ticks, &block.cold_ticks),
                (&mut scaled.diagnoses, &block.diagnoses),
            ] {
                into.wall_ns.extend_from_slice(&from.wall_ns);
                into.cpu_ns.extend(
                    from.cpu_ns
                        .iter()
                        .map(|&ns| (ns as f64 * scale).round() as u64),
                );
            }
        }
        scaled
    }

    fn record(&mut self, request: Request, cost: (u64, u64), verdict: Result<bool, ServeError>) {
        self.attempted += 1;
        match verdict {
            Ok(matches) => {
                if !matches {
                    self.wrong += 1;
                }
                let block = self
                    .blocks
                    .last_mut()
                    .expect("a block is open while measuring");
                match request {
                    Request::WarmTick => block.ticks.push(cost),
                    Request::ColdTick => {
                        block.ticks.push(cost);
                        block.cold_ticks.push(cost);
                    }
                    Request::Diagnose => block.diagnoses.push(cost),
                }
            }
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: request failed: {e}");
                }
                self.failed += 1;
            }
        }
    }
}

/// Runs `request`, returning its result and its wall-clock and process
/// CPU nanoseconds.
fn timed<T>(request: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (wall, cpu) = (Instant::now(), cpu::process_ns());
    let result = request();
    let cpu = cpu::process_ns() - cpu;
    (result, (wall.elapsed().as_nanos() as u64, cpu))
}

/// Drives the plan's schedule for `warmup`, then measures for `measure`,
/// measuring `gauge` as each `BLOCK` of it begins.
pub fn run(
    transport: &mut impl Transport,
    gauge: &mut Gauge,
    tenants: &mut Tenants,
    inputs: &Inputs,
    plan: &Plan,
    warmup: Duration,
    measure: Duration,
) -> Tally {
    let schedule = Schedule {
        fleet: &tenants.fleet,
        inputs,
        plan,
    };
    let (active, dormant) = (&mut tenants.active, &mut tenants.dormant);
    let mut tally = Tally {
        blocks: vec![Costs::default()],
        ..Tally::default()
    };
    let (mut step, mut next_active, mut next_dormant) = (0usize, 0usize, 0usize);
    let started = Instant::now();
    let mut measuring_since = None;
    loop {
        let now = Instant::now();
        match measuring_since {
            None if now.duration_since(started) >= warmup => {
                tally = Tally {
                    blocks: vec![Costs::starting(gauge)],
                    wrong: tally.wrong + tally.failed,
                    ..Tally::default()
                };
                transport.start_measuring();
                measuring_since = Some(Instant::now());
            }
            Some(since) if now.duration_since(since) >= measure => {
                tally.measured_s = now.duration_since(since).as_secs_f64();
                return tally;
            }
            Some(since) => {
                while BLOCK * tally.blocks.len() as u32 <= now.duration_since(since) {
                    tally.blocks.push(Costs::starting(gauge));
                }
            }
            _ => {}
        }
        step += 1;
        if step % plan.wake_every == 0 {
            let i = next_dormant % dormant.len();
            next_dormant += 1;
            schedule.tick(transport, &mut dormant[i], &mut tally);
        } else {
            let i = next_active % active.len();
            next_active += 1;
            schedule.tick(transport, &mut active[i], &mut tally);
        }
    }
}

struct Schedule<'a> {
    fleet: &'a Fleet,
    inputs: &'a Inputs,
    plan: &'a Plan,
}

impl Schedule<'_> {
    /// One step for one tenant: start its next job if the current one is
    /// over, then send its next tick and, where the plan says so, ask for
    /// a diagnosis.
    fn tick(&self, transport: &mut impl Transport, tenant: &mut Tenant, tally: &mut Tally) {
        let platform = &self.inputs.platforms[tenant.platform];
        let (streams, context) = (&platform.streams, &platform.context);
        if tenant.pos == streams[tenant.stream].ticks.len() {
            self.fleet
                .reset_run(&tenant.id, context)
                .expect("start the next job");
            tenant.stream = (tenant.stream + 1) % streams.len();
            tenant.pos = 0;
        }
        let stream = &streams[tenant.stream];
        let expected = &stream.expected[tenant.pos];
        let request = if expected.diagnoses() {
            Request::Diagnose
        } else if self.fleet.is_warm(&tenant.id) {
            Request::WarmTick
        } else {
            Request::ColdTick
        };
        let (cpi, row) = &stream.ticks[tenant.pos];
        let (reply, cost) = timed(|| {
            let reply = transport.ingest(&tenant.id, context, *cpi, row);
            if request == Request::Diagnose {
                transport.fence(&tenant.id);
            }
            reply
        });
        tally.record(request, cost, reply.map(|r| expected.matches(&r)));
        tenant.pos += 1;
        if tenant.watched && self.plan.diagnoses_after(tenant.pos) {
            let (reply, cost) = timed(|| {
                let reply = transport.diagnose(&tenant.id, context);
                transport.fence(&tenant.id);
                reply
            });
            let expected = expected.on_demand.as_ref();
            tally.record(Request::Diagnose, cost, reply.map(|d| Some(&d) == expected));
        }
    }
}
