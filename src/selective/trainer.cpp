#include "selective/trainer.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "nn/loss/cross_entropy.hpp"
#include "nn/optim/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::selective {

const EpochStats& TrainingLog::final_epoch() const {
  WM_CHECK(!epochs.empty(), "empty training log");
  return epochs.back();
}

SelectiveTrainer::SelectiveTrainer(const TrainerOptions& opts) : opts_(opts) {
  WM_CHECK(opts.epochs > 0, "epochs must be positive");
  WM_CHECK(opts.batch_size > 0, "batch size must be positive");
  WM_CHECK(opts.learning_rate > 0.0, "learning rate must be positive");
  WM_CHECK(opts.target_coverage > 0.0 && opts.target_coverage <= 1.0,
           "target coverage must be in (0,1]");
  WM_CHECK(opts.min_improvement >= 0.0 && opts.patience >= 0,
           "bad early-stop options");
  WM_CHECK(opts.final_lr_fraction > 0.0 && opts.final_lr_fraction <= 1.0,
           "final_lr_fraction must be in (0,1]");
}

TrainingLog SelectiveTrainer::train(SelectiveNet& net, const Dataset& training,
                                    const Dataset* validation, Rng& rng) const {
  WM_CHECK(!training.empty(), "cannot train on empty dataset");
  const bool ce_only = opts_.target_coverage >= 1.0;
  nn::SelectiveLoss selective_loss({.target_coverage = opts_.target_coverage,
                                    .lambda = opts_.lambda,
                                    .alpha = opts_.alpha});
  nn::Adam optimizer(net.parameters(), {.lr = opts_.learning_rate});

  obs::RunLog& run_log =
      opts_.run_log != nullptr ? *opts_.run_log : obs::run_log_global();
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& epochs_total = registry.counter(
      "wm_train_epochs_total", "selective-trainer epochs completed");
  obs::Gauge& loss_gauge =
      registry.gauge("wm_train_loss", "last epoch mean training loss");
  obs::Gauge& coverage_gauge = registry.gauge(
      "wm_train_coverage", "last epoch empirical coverage (phi-hat)");
  obs::Gauge& risk_gauge = registry.gauge(
      "wm_train_selective_risk", "last epoch empirical selective risk");
  obs::Gauge& val_acc_gauge = registry.gauge(
      "wm_train_val_accuracy", "last epoch full-coverage validation accuracy");
  obs::Gauge& lr_gauge =
      registry.gauge("wm_train_lr", "current learning rate");
  run_log.write("train_begin",
                {{"epochs", opts_.epochs},
                 {"batch_size", opts_.batch_size},
                 {"learning_rate", opts_.learning_rate},
                 {"target_coverage", opts_.target_coverage},
                 {"lambda", opts_.lambda},
                 {"alpha", opts_.alpha},
                 {"mode", ce_only ? "ce" : "selective"},
                 {"train_size", training.size()}});

  Stopwatch watch;
  TrainingLog log;
  float best_loss = std::numeric_limits<float>::infinity();
  int stale_epochs = 0;
  const bool track_best =
      opts_.keep_best && validation != nullptr && !validation->empty();
  double best_val_acc = -1.0;
  std::vector<Tensor> best_params;
  const double base_lr = opts_.learning_rate;
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    WM_TRACE_SCOPE("train.epoch");
    if (opts_.final_lr_fraction < 1.0 && opts_.epochs > 1) {
      // Exponential schedule from base_lr down to base_lr * fraction.
      const double t = static_cast<double>(epoch) / (opts_.epochs - 1);
      optimizer.options().lr = base_lr * std::pow(opts_.final_lr_fraction, t);
    }
    const auto batches = Dataset::batch_indices(
        training.size(), static_cast<std::size_t>(opts_.batch_size), rng);
    double epoch_loss = 0.0;
    double epoch_cov = 0.0;
    double epoch_risk = 0.0;
    for (const auto& indices : batches) {
      const Batch batch = training.make_batch(indices);
      const SelectiveOutput out = net.forward(batch.images, /*training=*/true);
      net.zero_grad();
      float batch_loss;
      if (ce_only) {
        const auto ce = nn::SoftmaxCrossEntropy::compute(out.logits, batch.labels,
                                                         &batch.weights);
        // No gradient into the selection head in CE mode.
        net.backward(ce.grad, Tensor::zeros(out.g.shape()));
        batch_loss = ce.value;
        epoch_cov += static_cast<double>(indices.size());
        epoch_risk += static_cast<double>(ce.value) * indices.size();
      } else {
        const auto sel = selective_loss.compute(out.logits, out.g, batch.labels,
                                                &batch.weights);
        net.backward(sel.grad_logits, sel.grad_g);
        batch_loss = sel.value;
        epoch_cov += static_cast<double>(sel.coverage) * indices.size();
        epoch_risk += static_cast<double>(sel.selective_risk) * indices.size();
      }
      optimizer.step();
      epoch_loss += static_cast<double>(batch_loss) * indices.size();
    }
    const double n = static_cast<double>(training.size());
    EpochStats stats;
    stats.loss = static_cast<float>(epoch_loss / n);
    stats.coverage = static_cast<float>(epoch_cov / n);
    stats.selective_risk = static_cast<float>(epoch_risk / n);
    if (validation != nullptr && !validation->empty()) {
      WM_TRACE_SCOPE("train.eval");
      stats.val_accuracy = static_cast<float>(argmax_accuracy(net, *validation));
      if (track_best && *stats.val_accuracy > best_val_acc) {
        best_val_acc = *stats.val_accuracy;
        best_params.clear();
        for (const nn::Parameter* p : net.parameters()) {
          best_params.push_back(p->value);
        }
      }
    }
    log.epochs.push_back(stats);
    log_info("epoch ", epoch + 1, "/", opts_.epochs, " loss=", stats.loss,
             " cov=", stats.coverage,
             stats.val_accuracy ? " val_acc=" + std::to_string(*stats.val_accuracy)
                                : "");
    epochs_total.inc();
    loss_gauge.set(stats.loss);
    coverage_gauge.set(stats.coverage);
    risk_gauge.set(stats.selective_risk);
    lr_gauge.set(optimizer.options().lr);
    if (stats.val_accuracy) val_acc_gauge.set(*stats.val_accuracy);
    std::vector<obs::LogField> fields{{"epoch", epoch + 1},
                                      {"loss", stats.loss},
                                      {"coverage", stats.coverage},
                                      {"selective_risk", stats.selective_risk},
                                      {"lr", optimizer.options().lr}};
    if (stats.val_accuracy) {
      fields.emplace_back("val_accuracy", *stats.val_accuracy);
    }
    run_log.write("epoch", fields);

    if (opts_.patience > 0) {
      if (stats.loss < best_loss - opts_.min_improvement) {
        best_loss = stats.loss;
        stale_epochs = 0;
      } else if (++stale_epochs >= opts_.patience) {
        log_info("early stop at epoch ", epoch + 1);
        run_log.write("early_stop", {{"epoch", epoch + 1},
                                     {"best_loss", best_loss}});
        break;
      }
    }
  }
  if (track_best && !best_params.empty()) {
    const auto params = net.parameters();
    WM_ASSERT(params.size() == best_params.size(), "snapshot size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_params[i];
    }
    log_info("restored best-validation parameters (val_acc=", best_val_acc, ")");
    run_log.write("restore_best", {{"val_accuracy", best_val_acc}});
  }
  net.release_caches();
  log.wall_seconds = watch.seconds();
  run_log.write("train_end",
                {{"epochs_run", static_cast<int>(log.epochs.size())},
                 {"wall_seconds", log.wall_seconds},
                 {"final_loss", log.final_epoch().loss}});
  return log;
}

TrainingLog SelectiveTrainer::fine_tune(SelectiveNet& net,
                                        const Dataset& recent,
                                        Rng& rng) const {
  WM_CHECK(!recent.empty(), "cannot fine-tune on empty dataset");
  obs::RunLog& run_log =
      opts_.run_log != nullptr ? *opts_.run_log : obs::run_log_global();
  run_log.write("fine_tune_begin",
                {{"samples", recent.size()},
                 {"epochs", opts_.epochs},
                 {"learning_rate", opts_.learning_rate},
                 {"target_coverage", opts_.target_coverage}});
  TrainingLog log = train(net, recent, /*validation=*/nullptr, rng);
  run_log.write("fine_tune_end",
                {{"epochs_run", static_cast<int>(log.epochs.size())},
                 {"wall_seconds", log.wall_seconds},
                 {"final_loss", log.final_epoch().loss},
                 {"final_coverage", log.final_epoch().coverage}});
  return log;
}

double argmax_accuracy(SelectiveNet& net, const Dataset& data, int eval_batch) {
  WM_CHECK(!data.empty(), "accuracy on empty dataset");
  WM_CHECK(eval_batch > 0, "bad eval batch size");
  std::size_t correct = 0;
  std::vector<std::size_t> indices;
  for (std::size_t start = 0; start < data.size();
       start += static_cast<std::size_t>(eval_batch)) {
    const std::size_t end =
        std::min(data.size(), start + static_cast<std::size_t>(eval_batch));
    indices.resize(end - start);
    std::iota(indices.begin(), indices.end(), start);
    const Batch batch = data.make_batch(indices);
    const SelectiveOutput out = net.forward(batch.images, /*training=*/false);
    const auto preds = argmax_rows(out.logits);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      correct += (static_cast<int>(preds[i]) == batch.labels[i]);
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace wm::selective
