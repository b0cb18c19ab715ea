//! Output checks, computed apart from the serving runtime: the benchmark
//! derives every expected value itself (offline Algorithm-2 sweep,
//! recomputed exits, byte layouts) and compares the served output to it.

use crate::setup::System;
use crate::workload::{Trace, Workload, FEATURE_CUT};
use mea_edgecloud::serve::ServeReport;
use mea_nn::layer::Mode;
use mea_tensor::{ops, Tensor};
use meanet::infer::{run_inference, run_inference_with_payload, InferenceConfig};
use meanet::{ExitPoint, InstanceRecord, OffloadPolicy, SweepPayload};
use std::collections::HashMap;

/// Response frame on the downlink: length prefix (4) + request id (8) +
/// predicted class (4).
pub const RESPONSE_BYTES: u64 = 4 + 8 + 4;
/// Lowest test accuracy of the trained edge (main + extension exits)
/// accepted: more than twice chance on six classes.
pub const MIN_EDGE_ACCURACY: f64 = 0.4;

/// Bytes one offloaded instance puts on the uplink, from the documented
/// payload layouts and the shipped tensor's dims (rank 4, batch of one).
///
/// * f32 image (`Payload` tag 1): tag (1) + rank (1) + dims (4·4) +
///   4 bytes per element.
/// * int8 per-tensor features (`Payload` tag 2 around the
///   `mea_quant::wire` frame): tag (1) + scheme (1) + channel count (4) +
///   one scale (4) + one zero point (4) + rank (1) + dims (4·4) + 1 byte
///   per element.
pub fn offload_bytes(features: bool, dims: &[usize]) -> u64 {
    let elems: u64 = dims.iter().map(|&d| d as u64).product();
    let dims_bytes = 4 * dims.len() as u64;
    if features {
        1 + 1 + 4 + 4 + 4 + 1 + dims_bytes + elems
    } else {
        1 + 1 + dims_bytes + 4 * elems
    }
}

/// The reference each served record is compared against: the offline
/// sweep over the serving set, plus the per-instance predictions the
/// benchmark recomputes from the exits' logits.
#[derive(Debug)]
pub struct Reference {
    /// Offline Algorithm-2 record of each serving-set instance.
    pub records: Vec<InstanceRecord>,
    /// Argmax of `main_logits` per instance.
    pub main_pred: Vec<usize>,
    /// Confidence arbitration of main exit vs argmax of
    /// `extension_logits` per instance.
    pub extension_pred: Vec<usize>,
    /// Uplink bytes of one offloaded instance.
    pub offload_bytes: u64,
    /// Edge-only accuracy on the serving set.
    pub edge_accuracy: f64,
}

/// Computes the reference for a workload under `policy`.
pub fn reference(sys: &mut System, workload: Workload, policy: OffloadPolicy) -> Reference {
    let payload =
        if workload.features() { SweepPayload::QuantFeatures { cut: FEATURE_CUT } } else { SweepPayload::Pixels };
    let (records, _) =
        run_inference_with_payload(&mut sys.net, Some(&mut sys.cloud), &sys.test, policy, 16, payload);
    let edge = run_inference(&mut sys.net, None, &sys.test, &InferenceConfig::edge_only(16));
    let edge_accuracy = edge.iter().filter(|r| r.correct).count() as f64 / edge.len() as f64;

    let images = &sys.test.images;
    let features = sys.net.main_features(images, Mode::Eval);
    let main_probs = ops::softmax_rows(&sys.net.main_logits_from(&features, Mode::Eval));
    let ext_probs = ops::softmax_rows(&sys.net.extension_logits(images, &features, Mode::Eval));
    let dict = sys.net.hard_dict().expect("the pipeline attaches edge blocks");
    let main_pred = main_probs.argmax_rows();
    let extension_pred = ext_probs
        .argmax_rows()
        .into_iter()
        .enumerate()
        .map(
            |(i, p)| {
                if max(main_probs.row(i)) > max(ext_probs.row(i)) {
                    main_pred[i]
                } else {
                    dict.to_original(p)
                }
            },
        )
        .collect();

    let one = images.slice_axis0(0, 1);
    let shipped: Tensor =
        if workload.features() { sys.cloud.forward_prefix(&one, FEATURE_CUT, Mode::Eval) } else { one };
    Reference {
        records,
        main_pred,
        extension_pred,
        offload_bytes: offload_bytes(workload.features(), shipped.dims()),
        edge_accuracy,
    }
}

fn max(row: &[f32]) -> f32 {
    row.iter().copied().fold(0.0, f32::max)
}

/// Bitwise record equality (entropy compared by bits).
pub fn same_record(a: &InstanceRecord, b: &InstanceRecord) -> bool {
    a.entropy.to_bits() == b.entropy.to_bits()
        && (a.truth, a.prediction, a.exit, a.main_prediction, a.detected_hard, a.correct)
            == (b.truth, b.prediction, b.exit, b.main_prediction, b.detected_hard, b.correct)
}

/// Checks one served round against the reference; returns the failed
/// checks (empty when everything holds) and the number of requests that
/// never completed.
pub fn check_round(trace: &Trace, report: &ServeReport, reference: &Reference) -> (Vec<String>, usize) {
    let n = trace.requests.len();
    let mut failures = Vec::new();

    // Every request completes exactly once.
    let mut seen = vec![0usize; n];
    for c in &report.completions {
        seen[c.req_id] += 1;
    }
    let missing = seen.iter().filter(|&&k| k == 0).count();
    let repeated = seen.iter().filter(|&&k| k > 1).count();
    if missing > 0 || repeated > 0 || report.completions.len() != n {
        failures.push(format!("{missing} requests never completed, {repeated} completed more than once"));
    }

    // Per-device order within each exit lane (local exits leave the edge
    // worker in order; cloud exits pass the reorder gate).
    let mut last: HashMap<(usize, bool), usize> = HashMap::new();
    let mut disorder = 0usize;
    for c in &report.completions {
        let lane = c.record.exit == ExitPoint::Cloud;
        if let Some(prev) = last.insert((c.device, lane), c.seq) {
            disorder += usize::from(c.seq <= prev);
        }
    }
    if disorder > 0 {
        failures.push(format!("{disorder} completions out of per-device order"));
    }

    // Records equal the offline sweep; local exits equal the recomputed
    // argmax.
    let (mut diverged, mut wrong_exit, mut offloaded) = (0usize, 0usize, 0u64);
    for (req_id, record) in report.records.iter().enumerate() {
        let row = trace.instance[req_id];
        diverged += usize::from(!same_record(record, &reference.records[row]));
        wrong_exit += usize::from(match record.exit {
            ExitPoint::Main => record.prediction != reference.main_pred[row],
            ExitPoint::Extension => record.prediction != reference.extension_pred[row],
            ExitPoint::Cloud => false,
        });
        offloaded += u64::from(record.exit == ExitPoint::Cloud);
    }
    if diverged > 0 {
        failures.push(format!("{diverged} records differ from the offline Algorithm-2 sweep"));
    }
    if wrong_exit > 0 {
        failures.push(format!("{wrong_exit} local exits differ from the recomputed argmax"));
    }

    // Wire bytes from the documented layouts.
    let stats = &report.stats;
    if stats.bytes_to_cloud != offloaded * reference.offload_bytes {
        failures.push(format!(
            "bytes_to_cloud {} != {offloaded} offloads x {} B",
            stats.bytes_to_cloud, reference.offload_bytes
        ));
    }
    if stats.bytes_from_cloud != offloaded * RESPONSE_BYTES {
        failures.push(format!("bytes_from_cloud {} != {offloaded} x {RESPONSE_BYTES} B", stats.bytes_from_cloud));
    }

    if reference.edge_accuracy < MIN_EDGE_ACCURACY {
        failures.push(format!("edge accuracy {:.3} below {MIN_EDGE_ACCURACY}", reference.edge_accuracy));
    }
    (failures, missing)
}

/// How far a round's last completion fell behind its last due time: an
/// open loop whose offered rate the host sustains ends within a few
/// service times of its last arrival.
pub fn drain_lag_s(trace: &Trace, report: &ServeReport) -> f64 {
    let last_due = trace.requests.iter().map(|r| r.arrival_s).fold(0.0, f64::max);
    let last_done =
        report.completions.iter().map(|c| trace.requests[c.req_id].arrival_s + c.latency_s).fold(0.0, f64::max);
    last_done - last_due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_layouts() {
        // A 3x8x8 f32 image: 2 + 16 + 4 * 192.
        assert_eq!(offload_bytes(false, &[1, 3, 8, 8]), 786);
        // A 12x8x8 int8 activation: 31 + 768.
        assert_eq!(offload_bytes(true, &[1, 12, 8, 8]), 799);
    }
}
