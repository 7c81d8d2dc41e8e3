//! The workloads' traffic plans, and the fleet each run serves: tenants
//! materialized from the trained template and preloaded to a seeded
//! position in their current job.
//!
//! `fleet_ticks` keeps its active tenants within a warm limit the size of
//! the default (1024 tenants), the case of a fleet whose reporting
//! tenants all fit. A fleet of 100,000 slots whose every tick finds its
//! tenant evicted is not a workload: such a tick scans the whole slot
//! table, and its median CPU time moved between 3.6 and 4.8 ms over ten
//! runs of one build, even at the reference pace (see `gauge`).

use std::sync::Arc;

use ix_core::{EventSink, InvarNetConfig, ModelStore};
use ix_serve::{Fleet, TenantId};

use crate::inputs::{Inputs, Platform, StreamKind};

/// Warm slots kept for woken dormant tenants. A woken tenant is the least
/// recently used warm tenant by the time a later wake needs its slot as
/// long as `wake_every * WAKE_SLOTS` exceeds the active tenant count, so
/// wakes never evict an active tenant.
const WAKE_SLOTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetTicks,
    PlatformIncidents,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "fleet_ticks" => Some(Workload::FleetTicks),
            "platform_incidents" => Some(Workload::PlatformIncidents),
            _ => None,
        }
    }

    pub fn plan(self) -> Plan {
        let diagnose_from = InvarNetConfig::default().window_ticks;
        match self {
            Workload::FleetTicks => Plan {
                active: 1000,
                dormant: 400,
                wake_every: 500,
                warm_limit: 1000 + WAKE_SLOTS,
                watch_every: 8,
                diagnose_every: 64,
                diagnose_from,
                streams: StreamKind::Normal,
            },
            Workload::PlatformIncidents => Plan {
                active: 60,
                dormant: 20,
                wake_every: 20,
                warm_limit: 60 + WAKE_SLOTS,
                watch_every: 1,
                diagnose_every: 4,
                diagnose_from,
                streams: StreamKind::Faulty,
            },
        }
    }
}

/// One workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Tenants that tick in turn, one tick per step.
    pub active: usize,
    /// Tenants evicted at set-up; every `wake_every`-th step wakes the
    /// next one for a single tick instead of ticking an active tenant.
    pub dormant: usize,
    pub wake_every: usize,
    /// The fleet's warm high-water mark.
    pub warm_limit: usize,
    /// Every `watch_every`-th active tenant is watched: its operator asks
    /// for a diagnosis after every `diagnose_every`-th tick of a job, once
    /// `diagnose_from` ticks (a full window) are in.
    watch_every: usize,
    diagnose_every: usize,
    diagnose_from: usize,
    pub streams: StreamKind,
}

impl Plan {
    fn watches(&self, tenant: usize) -> bool {
        tenant.is_multiple_of(self.watch_every)
    }

    /// Whether a watched tenant is diagnosed once `sent` ticks of its
    /// current job are in.
    pub fn diagnoses_after(&self, sent: usize) -> bool {
        sent >= self.diagnose_from && sent.is_multiple_of(self.diagnose_every)
    }
}

/// One tenant's place in its sequence of jobs.
pub struct Tenant {
    pub id: TenantId,
    /// The platform it reports from.
    pub platform: usize,
    /// The stream of its platform the current job replays.
    pub stream: usize,
    /// Ticks of the current job already sent.
    pub pos: usize,
    /// Whether its operator asks for diagnoses (see [`Plan`]).
    pub watched: bool,
}

pub struct Tenants {
    pub fleet: Arc<Fleet>,
    pub active: Vec<Tenant>,
    pub dormant: Vec<Tenant>,
}

/// Builds the fleet a run serves: trains the template, then materializes
/// every tenant from it and replays its first job up to its position.
/// The tenants of a kind sit at positions spread evenly from an offset
/// drawn from `seed`, so job positions are spread evenly from the first
/// step, and set-up replays about as many ticks whatever the seed.
pub fn build(inputs: &Inputs, plan: &Plan, seed: u64, sink: Option<Arc<dyn EventSink>>) -> Tenants {
    let mut builder = Fleet::builder().warm_limit(plan.warm_limit);
    if let Some(sink) = sink {
        builder = builder.event_sink(sink);
    }
    let fleet = Arc::new(builder.build());
    let stores: Vec<ModelStore> = inputs.platforms.iter().map(Platform::train).collect();
    let platforms = inputs.platforms.len();
    let (streams, job) = {
        let streams = &inputs.platforms[0].streams;
        (streams.len(), streams[0].ticks.len())
    };
    let mut offsets = SplitMix64(seed);
    let mut tenants = |kind: &str, count: usize, watched: &dyn Fn(usize) -> bool| {
        let offset = offsets.below(job);
        (0..count)
            .map(|i| Tenant {
                id: TenantId::new(format!("{kind}-{i}")).expect("generated tenant ids are valid"),
                platform: i % platforms,
                stream: i / platforms % streams,
                pos: (offset + spread(i, job)) % job,
                watched: watched(i),
            })
            .collect::<Vec<Tenant>>()
    };
    let dormant = tenants("dormant", plan.dormant, &|_| false);
    let active = tenants("tenant", plan.active, &|i| plan.watches(i));
    // Dormant tenants go first and are evicted at once, so the active ones
    // start warm wherever the warm limit holds them all.
    for t in &dormant {
        preload(
            &fleet,
            &stores[t.platform],
            &inputs.platforms[t.platform],
            t,
        );
        fleet.evict(&t.id).expect("evict a dormant tenant");
    }
    for t in &active {
        preload(
            &fleet,
            &stores[t.platform],
            &inputs.platforms[t.platform],
            t,
        );
    }
    Tenants {
        fleet,
        active,
        dormant,
    }
}

/// Materializes `tenant` from its platform's template state and replays
/// its current job up to its position.
fn preload(fleet: &Fleet, store: &ModelStore, platform: &Platform, tenant: &Tenant) {
    fleet
        .with_engine(&tenant.id, |engine| engine.load_state(store))
        .expect("materialize a tenant")
        .expect("load the template state");
    for (cpi, row) in &platform.streams[tenant.stream].ticks[..tenant.pos] {
        fleet
            .ingest(&tenant.id, &platform.context, *cpi, row)
            .expect("preload a tick");
    }
}

/// The position of the `i`-th tenant of a kind in a job of `job` ticks,
/// before the offset: the golden-ratio sequence, whose every run of
/// consecutive tenants is spread evenly over the job. Tenants are visited
/// in order, and a run visits only some of them: with positions spaced
/// evenly by index, a run of `fleet_ticks` woke dormant tenants from only
/// part of the job, and the median cold tick moved by a fifth with the
/// seeded offset.
fn spread(i: usize, job: usize) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    ((i as f64 * GOLDEN).fract() * job as f64) as usize
}

/// SplitMix64, for the seeded position offsets.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}
