#include "augment/cae_trainer.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "nn/optim/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"

namespace wm::augment {

CaeTrainingLog train_cae(ConvAutoencoder& cae, const Dataset& data,
                         const CaeTrainerOptions& opts, Rng& rng) {
  WM_CHECK(!data.empty(), "cannot train CAE on empty dataset");
  WM_CHECK(opts.epochs > 0 && opts.batch_size > 0 && opts.learning_rate > 0,
           "bad CAE trainer options");
  nn::Adam optimizer(cae.parameters(), {.lr = opts.learning_rate});

  obs::RunLog& run_log =
      opts.run_log != nullptr ? *opts.run_log : obs::run_log_global();
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& epochs_total = registry.counter(
      "wm_augment_cae_epochs_total", "CAE trainer epochs completed");
  obs::Gauge& mse_gauge = registry.gauge(
      "wm_augment_cae_mse", "last CAE epoch mean reconstruction MSE");
  run_log.write("cae_train_begin", {{"epochs", opts.epochs},
                                    {"batch_size", opts.batch_size},
                                    {"train_size", data.size()}});

  CaeTrainingLog log;
  log.epoch_losses.reserve(static_cast<std::size_t>(opts.epochs));
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    WM_TRACE_SCOPE("cae.epoch");
    const auto batches = Dataset::batch_indices(
        data.size(), static_cast<std::size_t>(opts.batch_size), rng);
    double epoch_loss = 0.0;
    for (const auto& indices : batches) {
      const Batch batch = data.make_batch(indices);
      optimizer.zero_grad();
      const float loss = cae.training_step(batch.images);
      optimizer.step();
      epoch_loss += static_cast<double>(loss) * static_cast<double>(indices.size());
    }
    epoch_loss /= static_cast<double>(data.size());
    log.epoch_losses.push_back(static_cast<float>(epoch_loss));
    log_debug("CAE epoch ", epoch + 1, "/", opts.epochs, " mse=", epoch_loss);
    epochs_total.inc();
    mse_gauge.set(epoch_loss);
    run_log.write("cae_epoch", {{"epoch", epoch + 1}, {"mse", epoch_loss}});
  }
  run_log.write("cae_train_end",
                {{"epochs_run", static_cast<int>(log.epoch_losses.size())},
                 {"final_mse", log.final_loss()}});
  cae.release_caches();
  return log;
}

}  // namespace wm::augment
