//! The three workloads and the fixed constants that shape them.
//!
//! Every rate, offload fraction, cut and size here is a constant of the
//! benchmark: none is derived at run time from how fast the host is, so
//! two hosts (or two commits) are offered exactly the same work.

use mea_data::Dataset;
use mea_edgecloud::serve::ServeRequest;
use mea_edgecloud::traces::ArrivalModel;
use mea_tensor::Rng;

/// Devices sending requests (device-sticky routing, per-device order).
pub const DEVICES: usize = 8;
/// Edge worker threads: one edge replica.
pub const EDGE_WORKERS: usize = 1;
/// Cloud worker threads: one cloud replica, so the two tiers match the
/// two cores of the reference host.
pub const CLOUD_WORKERS: usize = 1;
/// Dynamic-batching cap of the cloud worker.
pub const MAX_BATCH: usize = 8;
/// Capacity of every bounded edge and cloud ingress queue.
pub const QUEUE_DEPTH: usize = 16;
/// Cloud-network cut layer of the feature workloads: the end of the
/// cloud ResNet's first stage (layer 6 of its 13 cut layers).
pub const FEATURE_CUT: usize = 6;
/// Passes over the serving set per drain round.
pub const BACKLOG_PASSES: usize = 2;
/// How far an open-loop run's last completion may fall behind its last
/// due time before the offered rate counts as unsustainable.
pub const DRAIN_BOUND_S: f64 = 0.25;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Low offload, image payloads, every request due at time 0: the
    /// paper's operating regime, bound by batch-1 edge forwards. It is a
    /// drain rather than an open loop because an open loop's latency on a
    /// 2-vCPU virtual machine measures the host's neighbours (see
    /// `README.md`).
    EdgeLocal,
    /// Paced Poisson arrivals, high offload, int8 features at a fixed
    /// cut: loads prefix, codec, sockets, ingress and cloud suffix.
    CloudOffload,
    /// `CloudOffload`'s deployment with every request due at time 0:
    /// bounded queues pace admission and cloud batches fill.
    Backlog,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::EdgeLocal, Workload::CloudOffload, Workload::Backlog];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeLocal => "edge_local",
            Workload::CloudOffload => "cloud_offload",
            Workload::Backlog => "backlog",
        }
    }

    /// Share of the serving set the budgeted entropy policy offloads.
    pub fn offload_fraction(self) -> f64 {
        match self {
            Workload::EdgeLocal => 0.15,
            Workload::CloudOffload | Workload::Backlog => 0.8,
        }
    }

    /// Offered Poisson rate (requests per second); `None` offers the whole
    /// round at time 0.
    pub fn rate_hz(self) -> Option<f64> {
        match self {
            Workload::CloudOffload => Some(120.0),
            Workload::EdgeLocal | Workload::Backlog => None,
        }
    }

    /// Whether offloads ship int8 activations at [`FEATURE_CUT`] (else
    /// lossless f32 images).
    pub fn features(self) -> bool {
        self != Workload::EdgeLocal
    }

    /// Passes over the serving set in one round of a run lasting
    /// `seconds`: open-loop workloads run one round covering the whole
    /// run at their rate; a drain round is [`BACKLOG_PASSES`] passes and
    /// rounds repeat until the time is up.
    pub fn passes_per_round(self, serving_set: usize, seconds: f64) -> usize {
        match self.rate_hz() {
            Some(rate) => ((rate * seconds / serving_set as f64).round() as usize).max(1),
            None => BACKLOG_PASSES,
        }
    }
}

/// A request trace plus, for each request, the index of the serving-set
/// instance it carries.
#[derive(Debug)]
pub struct Trace {
    /// Requests sorted by arrival time.
    pub requests: Vec<ServeRequest>,
    /// `instance[i]` is request `i`'s row in the serving set.
    pub instance: Vec<usize>,
}

/// Builds a trace of `passes` whole passes over `data`, each in its own
/// seeded order, so every trace offloads exactly the share the policy was
/// calibrated for. Arrivals are Poisson at `rate_hz`, or all at time 0
/// for `None`. Request `i` comes from device `i % DEVICES`.
pub fn build_trace(rate_hz: Option<f64>, data: &Dataset, passes: usize, rng: &mut Rng) -> Trace {
    let mut instance = Vec::with_capacity(passes * data.len());
    for _ in 0..passes {
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        instance.extend(order);
    }
    let arrivals = match rate_hz {
        Some(rate_hz) => ArrivalModel::Poisson { rate_hz }.generate(instance.len(), rng),
        None => vec![0.0; instance.len()],
    };
    let mut next_seq = [0usize; DEVICES];
    let requests = instance
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, (&row, arrival_s))| {
            let device = i % DEVICES;
            let seq = next_seq[device];
            next_seq[device] += 1;
            ServeRequest {
                device,
                seq,
                arrival_s,
                image: data.images.slice_axis0(row, row + 1),
                truth: data.labels[row],
            }
        })
        .collect();
    Trace { requests, instance }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("many_devices"), None);
    }

    #[test]
    fn open_loop_rounds_cover_the_run_at_the_fixed_rate() {
        assert_eq!(Workload::CloudOffload.passes_per_round(120, 1.5), 2);
        assert_eq!(Workload::CloudOffload.passes_per_round(120, 0.01), 1);
        for drain in [Workload::EdgeLocal, Workload::Backlog] {
            assert_eq!(drain.passes_per_round(120, 10.0), BACKLOG_PASSES);
        }
    }

    #[test]
    fn traces_are_whole_seeded_passes() {
        let data = mea_data::presets::tiny(1).test;
        let a = build_trace(Some(100.0), &data, 3, &mut Rng::new(9));
        let b = build_trace(Some(100.0), &data, 3, &mut Rng::new(9));
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.requests.len(), 3 * data.len());
        for pass in a.instance.chunks(data.len()) {
            let mut rows = pass.to_vec();
            rows.sort_unstable();
            assert_eq!(rows, (0..data.len()).collect::<Vec<_>>());
        }
        assert!(a.requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        let backlog = build_trace(None, &data, 1, &mut Rng::new(9));
        assert!(backlog.requests.iter().all(|r| r.arrival_s == 0.0));
        for (d, r) in backlog.requests.iter().enumerate().take(DEVICES) {
            assert_eq!((r.device, r.seq), (d, 0));
        }
    }
}
