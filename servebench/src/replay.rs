//! The traced per-layer replay: a workload's own requests driven one
//! layer call at a time through each layer's public entry points, with a
//! span around every call. The replay follows the served path exactly
//! (same routing, same payloads, same socket transport, the workload's
//! cloud batching), so its records must equal the served ones.

use crate::setup::System;
use crate::trace::Tracer;
use crate::workload::{Trace, FEATURE_CUT, MAX_BATCH};
use mea_edgecloud::payload::Payload;
use mea_edgecloud::transport::{
    DownlinkReceiver, RecvOutcome, RequestFrame, ResponseFrame, Transport, UplinkReceiver,
};
use mea_edgecloud::transport::{UdsDownlink, UdsUplink};
use mea_edgecloud::{UdsConfig, UdsTransport};
use mea_nn::blocks::BasicBlock;
use mea_nn::layer::Mode;
use mea_nn::layers::Conv2d;
use mea_nn::Sequential;
use mea_tensor::{matmul, Rng, Tensor};
use meanet::routing::{PendingCloud, RoutingEngine};
use meanet::{ExitPoint, InstanceRecord, OffloadPolicy};

/// Layer spans that carry a request's own work; together with the
/// cloud-batch spans they are the path whose self time `trace.coverage`
/// compares with the served CPU time.
pub const PATH_CAT: &str = "path";
/// Spans of layer calls off the workload's path, measured on its inputs.
pub const PROBE_CAT: &str = "probe";
/// Spans of the GEMM kernel measurements.
pub const KERNEL_CAT: &str = "kernel";
/// The per-request root span of the replay (benchmark bookkeeping, not a
/// layer).
pub const REQUEST_SPAN: &str = "replay.request";

/// Requests the replay drives at least (whole served rounds, in order).
pub const REPLAY_REQUESTS: usize = 960;
/// Requests whose images feed each off-path probe.
const PROBE_REQUESTS: usize = 64;
/// Timed calls of each GEMM shape.
const GEMM_B1_CALLS: usize = 400;
const GEMM_TRAIN_CALLS: usize = 20;

/// Replays every request of one served round and returns the replayed
/// records, in request order. Offloads reach the cloud in batches of
/// `batch` (the mean batch size the round was served in); spans carry
/// request ids offset by `id_base`, so ids stay unique across rounds.
pub fn replay(
    tr: &mut Tracer,
    sys: &mut System,
    features: bool,
    policy: OffloadPolicy,
    trace: &Trace,
    batch: usize,
    id_base: usize,
) -> Vec<InstanceRecord> {
    let engine = RoutingEngine::new(policy, true);
    let mut cloud = CloudSide::new(features, id_base);
    let mut records: Vec<Option<InstanceRecord>> = vec![None; trace.requests.len()];
    for (i, req) in trace.requests.iter().enumerate() {
        let root = tr.begin(REQUEST_SPAN, PATH_CAT, None, Some(id_base + i));
        let (p, r) = (Some(root), Some(id_base + i));
        let main =
            tr.leaf("nn.main_exit", PATH_CAT, p, r, || RoutingEngine::evaluate_main(&mut sys.net, &req.image));
        let plan = tr.leaf("routing.plan", PATH_CAT, p, r, || engine.plan(&sys.net, &main));
        match plan.routes[0] {
            ExitPoint::Cloud => {
                let parked = PendingCloud::from_main(&sys.net, &main, 0, req.truth);
                let (shipped, resume) = if features {
                    let act = tr.leaf("nn.prefix", PATH_CAT, p, r, || {
                        sys.cloud.forward_range(&req.image, 0, FEATURE_CUT, Mode::Eval)
                    });
                    (act, FEATURE_CUT)
                } else {
                    (req.image.clone(), 0)
                };
                let payload = tr.leaf("payload.encode", PATH_CAT, p, r, || {
                    if features {
                        Payload::encode_quantized_features(&shipped)
                    } else {
                        Payload::encode_features(&shipped)
                    }
                });
                let frame = RequestFrame {
                    req_id: i as u64,
                    device: req.device as u32,
                    seq: req.seq as u64,
                    resume_layer: resume as u32,
                    payload,
                };
                tr.leaf("transport.send_request", PATH_CAT, p, r, || cloud.transport.send_request(0, frame))
                    .expect("the replay's socket is open");
                cloud.queued.push((i, parked.resume_at(resume)));
            }
            exit => {
                let prediction = match exit {
                    ExitPoint::Extension => tr.leaf("nn.extension", PATH_CAT, p, r, || {
                        RoutingEngine::finish_extension(&mut sys.net, &req.image, &main, &[0])[0]
                    }),
                    _ => main.preds[0],
                };
                records[i] = Some(RoutingEngine::local_record(&sys.net, &main, 0, exit, prediction, req.truth));
            }
        }
        tr.end(root);
        if cloud.queued.len() == batch {
            cloud.run_batch(tr, sys, &mut records);
        }
    }
    if !cloud.queued.is_empty() {
        cloud.run_batch(tr, sys, &mut records);
    }
    cloud.transport.close_requests();
    cloud.transport.close_responses(0);
    records.into_iter().map(|r| r.expect("every replayed request completes")).collect()
}

/// The cloud end of the replay: one socket lane and the offloads queued
/// for the next batch.
struct CloudSide {
    features: bool,
    id_base: usize,
    transport: UdsTransport,
    uplink: UdsUplink,
    downlink: UdsDownlink,
    queued: Vec<(usize, PendingCloud)>,
}

impl CloudSide {
    fn new(features: bool, id_base: usize) -> CloudSide {
        let transport = UdsTransport::new(1, UdsConfig::default());
        let uplink = transport.take_uplink(0);
        let downlink = transport.take_downlink(0);
        CloudSide { features, id_base, transport, uplink, downlink, queued: Vec::new() }
    }

    /// Receives and decodes every queued frame, runs one batched forward
    /// and sends the responses back over the socket.
    fn run_batch(&mut self, tr: &mut Tracer, sys: &mut System, records: &mut [Option<InstanceRecord>]) {
        let mut scratch = Vec::new();
        let mut dims = Vec::new();
        for &(i, _) in &self.queued {
            let r = Some(self.id_base + i);
            let uplink = &mut self.uplink;
            let RecvOutcome::Frame(inbound) =
                tr.leaf("transport.recv_request", PATH_CAT, None, r, || uplink.recv(None))
            else {
                panic!("the replay's uplink closed early");
            };
            assert_eq!(inbound.frame.req_id, i as u64, "frames arrive in send order");
            dims = tr.leaf("payload.decode", PATH_CAT, None, r, || {
                Payload::decode_into(inbound.frame.payload.clone(), &mut scratch)
            });
        }
        let k = self.queued.len();
        dims[0] *= k;
        let stacked = Tensor::from_vec(scratch, &dims).expect("decoded frames share a shape");
        let r = (k == 1).then(|| self.id_base + self.queued[0].0);
        let name = match (self.features, k) {
            (false, 1) => "nn.cloud_full_b1",
            (false, _) => "nn.cloud_full_partial",
            (true, 1) => "nn.cloud_suffix_b1",
            (true, MAX_BATCH) => "nn.cloud_suffix_batch",
            (true, _) => "nn.cloud_suffix_partial",
        };
        let features = self.features;
        let preds = tr.leaf(name, PATH_CAT, None, r, || {
            if features {
                RoutingEngine::classify_cloud_from(&mut sys.cloud, &stacked, FEATURE_CUT)
            } else {
                RoutingEngine::classify_cloud(&mut sys.cloud, &stacked)
            }
        });
        for ((i, pending), pred) in self.queued.drain(..).zip(preds) {
            let r = Some(self.id_base + i);
            let resp = ResponseFrame { req_id: i as u64, prediction: pred as u32 };
            let transport = &self.transport;
            tr.leaf("transport.send_response", PATH_CAT, None, r, || transport.send_response(0, resp))
                .expect("the replay's socket is open");
            let downlink = &mut self.downlink;
            let RecvOutcome::Frame(back) =
                tr.leaf("transport.recv_response", PATH_CAT, None, r, || downlink.recv())
            else {
                panic!("the replay's downlink closed early");
            };
            records[i] = Some(pending.complete(back.frame.prediction as usize));
        }
    }
}

/// Times every batch-1 and batched network layer the replay did not run
/// on the workload's path (so each workload reports every `nn.*` metric),
/// over the images of its first requests.
pub fn probe_off_path(tr: &mut Tracer, sys: &mut System, trace: &Trace) {
    let images: Vec<&Tensor> = trace.requests.iter().take(PROBE_REQUESTS).map(|r| &r.image).collect();
    let missing = |tr: &Tracer, name: &str| tr.durations_s(name).is_empty();
    if missing(tr, "nn.extension") {
        for img in &images {
            let main = RoutingEngine::evaluate_main(&mut sys.net, img);
            tr.leaf("nn.extension", PROBE_CAT, None, None, || {
                RoutingEngine::finish_extension(&mut sys.net, img, &main, &[0])
            });
        }
    }
    if missing(tr, "nn.cloud_full_b1") {
        for img in &images {
            tr.leaf("nn.cloud_full_b1", PROBE_CAT, None, None, || {
                RoutingEngine::classify_cloud(&mut sys.cloud, img)
            });
        }
    }
    let probe_prefix = missing(tr, "nn.prefix");
    let mut acts = Vec::with_capacity(images.len());
    for img in &images {
        let act = if probe_prefix {
            tr.leaf("nn.prefix", PROBE_CAT, None, None, || {
                sys.cloud.forward_range(img, 0, FEATURE_CUT, Mode::Eval)
            })
        } else {
            sys.cloud.forward_range(img, 0, FEATURE_CUT, Mode::Eval)
        };
        acts.push(act);
    }
    if missing(tr, "nn.cloud_suffix_b1") {
        for act in &acts {
            tr.leaf("nn.cloud_suffix_b1", PROBE_CAT, None, None, || {
                RoutingEngine::classify_cloud_from(&mut sys.cloud, act, FEATURE_CUT)
            });
        }
    }
    if missing(tr, "nn.cloud_suffix_batch") {
        for chunk in acts.chunks_exact(MAX_BATCH) {
            let stacked = Tensor::concat_axis0(&chunk.iter().collect::<Vec<_>>());
            tr.leaf("nn.cloud_suffix_batch", PROBE_CAT, None, None, || {
                RoutingEngine::classify_cloud_from(&mut sys.cloud, &stacked, FEATURE_CUT)
            });
        }
    }
}

/// The GEMM shape of one convolution lowered through im2col for one
/// image: `[m, k] · [k, n]` with `m` output channels, `k = C·kh·kw` and
/// `n` output pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Output channels.
    pub m: usize,
    /// Patch length `C·kh·kw`.
    pub k: usize,
    /// Output pixels per image.
    pub n: usize,
}

/// The heaviest convolution (most MACs per image) of a backbone's
/// segments, walking into residual blocks. Ties keep the earliest.
pub fn heaviest_conv(segments: &[Sequential], in_shape: [usize; 3]) -> Option<GemmShape> {
    fn walk(seq: &Sequential, mut shape: Vec<usize>, best: &mut Option<GemmShape>) -> Vec<usize> {
        for layer in seq.layers() {
            let (_, out) = layer.macs(&shape);
            if let Some(conv) = layer.as_any().downcast_ref::<Conv2d>() {
                let g = GemmShape { m: conv.out_channels(), k: conv.geom().patch_len(), n: out[1] * out[2] };
                if best.is_none_or(|b| g.m * g.k * g.n > b.m * b.k * b.n) {
                    *best = Some(g);
                }
            } else if let Some(block) = layer.as_any().downcast_ref::<BasicBlock>() {
                let (main, projection) = block.parts();
                walk(main, shape.clone(), best);
                if let Some(p) = projection {
                    walk(p, shape.clone(), best);
                }
            }
            shape = out;
        }
        shape
    }
    let mut best = None;
    let mut shape = in_shape.to_vec();
    for seg in segments {
        shape = walk(seg, shape, &mut best);
    }
    best
}

/// Times `matmul` at the heaviest edge conv's im2col shape for one image
/// (`tensor.gemm_b1`) and for a whole training batch lowered at once,
/// `[m, k] · [k, batch·n]` (`tensor.gemm_train`). Returns the two shapes'
/// `n` columns.
pub fn time_gemms(tr: &mut Tracer, shape: GemmShape, train_batch: usize) -> (usize, usize) {
    let mut rng = Rng::new(11);
    let a = Tensor::rand_uniform([shape.m, shape.k], -1.0, 1.0, &mut rng);
    let b1 = Tensor::rand_uniform([shape.k, shape.n], -1.0, 1.0, &mut rng);
    let bt = Tensor::rand_uniform([shape.k, train_batch * shape.n], -1.0, 1.0, &mut rng);
    for _ in 0..GEMM_B1_CALLS {
        tr.leaf("tensor.gemm_b1", KERNEL_CAT, None, None, || matmul::matmul(&a, &b1));
    }
    for _ in 0..GEMM_TRAIN_CALLS {
        tr.leaf("tensor.gemm_train", KERNEL_CAT, None, None, || matmul::matmul(&a, &bt));
    }
    (shape.n, train_batch * shape.n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};

    #[test]
    fn heaviest_conv_of_a_small_resnet() {
        let cfg = CifarResNetConfig { blocks_per_stage: 1, channels: [8, 16, 32], num_classes: 6, input_hw: 8 };
        let net = resnet_cifar(&cfg, &mut Rng::new(1));
        // Stage 1 at 8x8: 8 x 72 x 64 = 36864 MACs; later stages tie at
        // the same count, so the earliest wins.
        assert_eq!(heaviest_conv(&net.segments, net.in_shape), Some(GemmShape { m: 8, k: 72, n: 64 }));
        let wide = CifarResNetConfig { channels: [8, 16, 64], ..cfg };
        let net = resnet_cifar(&wide, &mut Rng::new(1));
        // 64 x 576 x 4 = 147456 beats stage 1.
        assert_eq!(heaviest_conv(&net.segments, net.in_shape), Some(GemmShape { m: 64, k: 576, n: 4 }));
    }
}
