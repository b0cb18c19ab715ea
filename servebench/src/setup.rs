//! What a deployment pays before it serves: generate the data, train the
//! MEANet system (Algorithm 1 plus the cloud DNN), copy the trained state
//! into the serving replicas and build the [`Fleet`].

use crate::trace::Tracer;
use crate::workload::{Workload, CLOUD_WORKERS, EDGE_WORKERS, FEATURE_CUT, MAX_BATCH, QUEUE_DEPTH};
use mea_data::synth::{generate, SynthConfig};
use mea_data::Dataset;
use mea_edgecloud::serve::{ControlPlan, EdgeReplica, FeatureWire, Fleet, PayloadPlan, ServeConfig, WireFormat};
use mea_edgecloud::{TransportKind, UdsConfig};
use mea_nn::models::SegmentedCnn;
use mea_nn::StateDict;
use mea_tensor::Rng;
use meanet::infer::{run_inference, InferenceConfig};
use meanet::model::Variant;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::stats::evaluate_main_exit;
use meanet::train::{build_hard_dataset, train_backbone, train_edge_blocks, train_main_exit};
use meanet::{MeaNet, OffloadPolicy};

/// Seed of the training recipe (weights, splits, shuffles); the data
/// come from the run's `--seed`.
const TRAIN_SEED: u64 = 3;
/// Seed of the fresh replicas the trained state is copied into (their own
/// initial weights are overwritten, so it never changes a result).
const REPLICA_SEED: u64 = 100;
/// Training epochs of the edge backbone and edge blocks (the cloud DNN
/// trains twice as long).
const EPOCHS: usize = 4;

/// The synthetic CIFAR-like dataset: the `tiny` preset's six classes in
/// three clusters of 8×8 images, with 16 training and 20 test images per
/// class. The 120 test images are the serving set.
pub fn data_config(seed: u64) -> SynthConfig {
    SynthConfig {
        num_classes: 6,
        num_clusters: 3,
        image_hw: 8,
        feature_dim: 10,
        train_per_class: 16,
        test_per_class: 20,
        cluster_separation: 3.0,
        spread_tight: 0.2,
        spread_loose: 1.4,
        noise_mean: 0.25,
        noise_cap: 1.5,
        seed,
    }
}

/// The training recipe: repro-scale model B (ResNet main block, fresh
/// extension) with a deeper, wider ResNet as the cloud DNN, sized for
/// 8×8 inputs.
pub fn recipe() -> PipelineConfig {
    let mut cfg = PipelineConfig::repro_resnet_b(6, EPOCHS, TRAIN_SEED);
    for choice in [Some(&mut cfg.backbone), cfg.cloud.as_mut()].into_iter().flatten() {
        if let BackboneChoice::CifarResNet(c) = choice {
            c.input_hw = 8;
        }
    }
    cfg
}

/// A trained system plus the data it was trained and served on.
#[derive(Debug)]
pub struct System {
    /// The training recipe.
    pub recipe: PipelineConfig,
    /// The trained MEANet.
    pub net: MeaNet,
    /// The trained cloud DNN.
    pub cloud: SegmentedCnn,
    /// The serving set (the dataset's test split).
    pub test: Dataset,
}

/// Generates the data and trains the system through [`Pipeline::run`].
pub fn train(seed: u64) -> System {
    let bundle = generate(&data_config(seed));
    let recipe = recipe();
    let pipe = Pipeline::run(&recipe, &bundle.train);
    let cloud = pipe.cloud.expect("the recipe configures a cloud DNN");
    System { recipe, net: pipe.net, cloud, test: bundle.test }
}

/// [`train`] with every step of [`Pipeline::run`] called one by one inside
/// spans (`data.generate`, `train.backbone`, `train.main_eval`,
/// `train.edge_blocks`, `train.cloud`). It must produce bitwise the same
/// system; [`same_weights`] checks that.
pub fn train_traced(seed: u64, tr: &mut Tracer) -> System {
    let root = tr.begin("setup", "setup", None, None);
    let p = Some(root);
    let bundle = tr.leaf("data.generate", "setup", p, None, || generate(&data_config(seed)));
    let cfg = recipe();
    let mut rng = Rng::new(cfg.seed);
    let (val, train) = bundle.train.split_fraction(cfg.val_fraction, &mut rng);
    let mut backbone = cfg.backbone.build(&mut rng);
    tr.leaf("train.backbone", "setup", p, None, || train_backbone(&mut backbone, &train, &cfg.pretrain));
    let mut net = MeaNet::from_backbone(backbone, cfg.variant, cfg.merge, &mut rng);
    if matches!(cfg.variant, Variant::SplitBackbone { .. }) {
        tr.leaf("train.main_exit", "setup", p, None, || train_main_exit(&mut net, &train, &cfg.exit_train));
    }
    let eval = tr
        .leaf("train.main_eval", "setup", p, None, || evaluate_main_exit(&mut net, &val, cfg.pretrain.batch_size));
    let dict = cfg.selection.select_dict(&eval.confusion);
    net.attach_edge_blocks(cfg.adaptive, dict.clone(), &mut rng);
    let hard = build_hard_dataset(&train, &dict);
    tr.leaf("train.edge_blocks", "setup", p, None, || train_edge_blocks(&mut net, &hard, &cfg.edge_train));
    let mut cloud = cfg.cloud.as_ref().expect("the recipe configures a cloud DNN").build(&mut rng);
    tr.leaf("train.cloud", "setup", p, None, || train_backbone(&mut cloud, &bundle.train, &cfg.cloud_pretrain));
    tr.end(root);
    System { recipe: cfg, net, cloud, test: bundle.test }
}

/// Whether two systems hold bitwise-identical trained weights.
pub fn same_weights(a: &mut System, b: &mut System) -> bool {
    a.net.main_state_dict() == b.net.main_state_dict()
        && a.net.edge_state_dict() == b.net.edge_state_dict()
        && StateDict::from_cnn(&mut a.cloud) == StateDict::from_cnn(&mut b.cloud)
}

/// Calibrates the budgeted entropy policy on the serving set's main-exit
/// entropies, so it offloads exactly `beta` of every whole pass over it.
pub fn calibrate(sys: &mut System, beta: f64) -> OffloadPolicy {
    let records = run_inference(&mut sys.net, None, &sys.test, &InferenceConfig::edge_only(16));
    let entropies: Vec<f32> = records.iter().map(|r| r.entropy).collect();
    OffloadPolicy::budgeted_from_validation(&entropies, beta)
}

/// Copies the trained state into one edge replica (plus a cloud-prefix
/// replica for the feature wire) and one cloud replica, and builds the
/// fleet over Unix-domain sockets with no modelled link.
pub fn deploy(sys: &mut System, workload: Workload, policy: OffloadPolicy) -> Fleet {
    let cfg = &sys.recipe;
    let mut rng = Rng::new(REPLICA_SEED);
    let dict = sys.net.hard_dict().expect("the pipeline attaches edge blocks").clone();
    let cloud_state = StateDict::from_cnn(&mut sys.cloud);
    let cloud_choice = cfg.cloud.as_ref().expect("the recipe configures a cloud DNN");
    let cloud_replica = |rng: &mut Rng| {
        let mut replica = cloud_choice.build(rng);
        cloud_state.apply_to_cnn(&mut replica).expect("replicas share the recipe's architecture");
        replica
    };
    let edges = (0..EDGE_WORKERS)
        .map(|_| {
            let mut net = MeaNet::from_backbone(cfg.backbone.build(&mut rng), cfg.variant, cfg.merge, &mut rng);
            net.attach_edge_blocks(cfg.adaptive, dict.clone(), &mut rng);
            sys.net.replicate_into(&mut net);
            if workload.features() {
                EdgeReplica::with_cloud_prefix(net, cloud_replica(&mut rng))
            } else {
                EdgeReplica::new(net)
            }
        })
        .collect();
    let clouds = (0..CLOUD_WORKERS).map(|_| cloud_replica(&mut rng)).collect();
    let builder = ServeConfig::builder(policy)
        .edge_workers(EDGE_WORKERS)
        .cloud_workers(CLOUD_WORKERS)
        .max_batch(MAX_BATCH)
        .queue_depth(QUEUE_DEPTH)
        .transport(TransportKind::Uds(UdsConfig::default()));
    let builder = if workload.features() {
        builder.control(ControlPlan::Static { cut: FEATURE_CUT, wire: FeatureWire::Int8, controller: None })
    } else {
        builder.payload(PayloadPlan::Image(WireFormat::Float32))
    };
    let config = builder.build().expect("the benchmark's serving configuration is valid");
    Fleet::new(config, edges, clouds).expect("replicas match the serving configuration")
}
