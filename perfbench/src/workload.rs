//! The benchmark's workloads, generated from the `--seed` argument.
//!
//! The program only ever sees the generated scenarios and job lists; the
//! seed never reaches it except as the scenarios' own RNG seeds.

use mwn::jobs::JobSpec;
use mwn::mobility::RandomWaypoint;
use mwn::{
    topology, AodvConfig, DataRate, ExperimentScale, FlowSpec, NodeId, Scenario, SimDuration,
    SimTime, TrafficModel, Transport,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    CityMobility,
    WebChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Figures,
        Workload::CityMobility,
        Workload::WebChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::CityMobility => "city-mobility",
            Workload::WebChurn => "web-churn",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            })
    }

    /// How many independently seeded instances one round runs. The
    /// single-scenario workloads average over several run seeds so that
    /// one lucky or unlucky draw (of endpoints, sizes, waypoints) does not
    /// set the round's figures; `web-churn` instances are short, so it
    /// takes more. The `figures` sweep already spans nine jobs.
    pub fn instances(self) -> u64 {
        match self {
            Workload::Figures => 1,
            Workload::CityMobility => 3,
            Workload::WebChurn => 16,
        }
    }
}

/// The seed of instance `index` of a run seeded with `seed` (SplitMix64).
pub fn instance_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A single-scenario workload instance: what to build and when it is done.
pub struct Single {
    pub target: u64,
    pub deadline: SimTime,
}

impl Single {
    pub fn of(workload: Workload) -> Single {
        match workload {
            Workload::CityMobility => Single {
                target: 1_500,
                deadline: SimTime::ZERO + SimDuration::from_secs(1_000),
            },
            Workload::WebChurn => Single {
                target: 1_500,
                deadline: SimTime::ZERO + SimDuration::from_secs(3_000),
            },
            Workload::Figures => unreachable!("figures runs through the sweep runner"),
        }
    }
}

/// The seed of the single-scenario workloads' node placement (that of
/// the `mwn bench` shapes they follow). The field is part of the
/// workload's definition; the run seed drives everything that happens on
/// it: arrivals, mobility, backoff.
const TOPOLOGY_SEED: u64 = 4242;

/// Builds the scenario of a single-scenario workload instance whose run
/// is seeded with `seed`. Topology sampling is all of the work here;
/// `Scenario::build` comes after.
pub fn scenario(workload: Workload, seed: u64) -> Scenario {
    let mut s = match workload {
        Workload::CityMobility => city_mobility(50_000),
        Workload::WebChurn => Scenario::open_loop(
            20,
            TrafficModel::web(100_000).with_load(0.2),
            Transport::newreno(),
            DataRate::MBPS_11,
            TOPOLOGY_SEED,
        ),
        Workload::Figures => unreachable!("figures runs through the sweep runner"),
    };
    s.seed = seed;
    s
}

/// `nodes` at the paper's density on a ≥ 99 % giant-component draw, the
/// expanding-ring AODV preset, ten local (~3-hop) NewReno flows at
/// 11 Mbit/s and full-field random-waypoint mobility.
fn city_mobility(nodes: usize) -> Scenario {
    let topo = topology::random_large_giant(nodes, TOPOLOGY_SEED);
    let positions = topo.positions();
    let flows = (0..10usize)
        .map(|i| {
            let src = i * nodes / 10;
            // Paper density puts hundreds of nodes 2.2–2.8 radio ranges
            // from any source, so the scan always ends early.
            let dst = (0..nodes)
                .find(|&d| (550.0..700.0).contains(&positions[src].distance_to(positions[d])))
                .expect("paper density guarantees a ~3-hop partner");
            FlowSpec {
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                transport: Transport::newreno(),
            }
        })
        .collect();
    let mut s = Scenario::new(topo, flows, DataRate::MBPS_11, TOPOLOGY_SEED);
    s.aodv = AodvConfig::city();
    let (width, height) = topology::random_large_dims(nodes);
    s.mobility = Some(RandomWaypoint {
        width,
        height,
        min_speed: 1.0,
        max_speed: 10.0,
        pause: SimDuration::from_secs(2),
        tick: SimDuration::from_millis(100),
    });
    s
}

/// The `figures` subset: one or two jobs from every figure group of the
/// quick-scale suite, longest first so the two workers finish together.
const FIGURE_JOBS: [(&str, &str); 9] = [
    ("fig18-19", "variant=NewReno +thin bw=5.5Mbit/s"),
    ("fig6-9", "variant=NewReno hops=8"),
    ("fig2-3", "alpha=3 hops=8"),
    ("fig4", "alpha=2 bw=11Mbit/s"),
    ("fig5", "variant=Vegas a=2 +thin hops=8"),
    ("fig11-14", "variant=NewReno +thin bw=5.5Mbit/s"),
    ("fig16-17", "variant=Vegas bw=11Mbit/s"),
    ("fig6-9", "variant=Paced UDP hops=8"),
    ("fig10", "gap=30ms"),
];

/// The `figures` job list: the fixed subset of
/// `full_suite(ExperimentScale::quick())` with the suite's own seeds, so
/// the jobs are exactly those a figure reproduction runs.
///
/// The workload seed does not reach these jobs. Remixing their seeds
/// with it makes NewReno chain jobs livelock on roughly one seed in
/// fifteen (delivery stops while the MAC keeps forwarding), which no
/// figure run meets; see `perfbench/README.md`.
pub fn figure_jobs() -> Result<Vec<JobSpec>, String> {
    let suite = mwn::jobs::full_suite(ExperimentScale::quick());
    FIGURE_JOBS
        .iter()
        .map(|&(group, point)| {
            suite
                .iter()
                .find(|j| j.group == group && j.point == point)
                .cloned()
                .ok_or_else(|| format!("figure suite has no job `{point}` in `{group}`"))
        })
        .collect()
}

/// Transport packets a completed job delivers: every batch, the
/// discarded transient included.
pub fn job_target(job: &JobSpec) -> u64 {
    job.scale.batch_packets * job.scale.batches as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_fail() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("hit").is_err());
    }

    #[test]
    fn figure_jobs_cover_every_figure_group() {
        let jobs = figure_jobs().unwrap();
        let groups: std::collections::BTreeSet<&str> =
            jobs.iter().map(|j| j.group.as_str()).collect();
        assert_eq!(groups.len(), 8);
    }
}
