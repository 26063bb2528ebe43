// The signals an operator reads after training and serving a model: the
// trace's spans and counter tracks from every instrumented layer, and the
// registry dump shared by trainer, kernels and engine. One tiny net trains
// for an epoch, then a few dozen wafers go through an InferenceEngine fed
// to a SelectiveMonitor until its drift alarm fires, all on
// Registry::global() and all in memory.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::obs {
namespace {

TEST(ObsPipelineTest, TrainAndServeLeaveEverySpanCounterAndMetric) {
  set_trace_enabled(true);
  trace_clear();

  Rng rng(7);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(4);  // 36 wafers
  const Dataset data = synth::generate_dataset(spec, rng);
  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32},
                              rng);
  selective::SelectiveTrainer({.epochs = 1, .batch_size = 16})
      .train(net, data, nullptr, rng);

  // Threshold 1 abstains on every wafer: windowed coverage falls from the
  // monitor's 0.5 target to 0, so its drift alarm fires.
  const auto clf = load_classifier(net, {.threshold = 1.0f});
  {
    serve::SelectiveMonitor monitor({.window = 16,
                                     .min_observations = 16,
                                     .registry = &Registry::global()});
    serve::InferenceEngine engine(
        *clf, {.max_batch = 8, .registry = &Registry::global(),
               .monitor = &monitor});
    for (std::size_t i = 0; i < data.size(); ++i) {
      (void)engine.predict(data[i].map);
    }
    engine.shutdown();
  }
  const testjson::Value trace = testjson::parse(trace_to_json());
  const std::string prom = Registry::global().prometheus_text();
  set_trace_enabled(false);
  trace_clear();

  std::set<std::string> spans;
  std::set<std::string> counters;
  for (const testjson::Value& e : trace.at("traceEvents").arr()) {
    if (e.at("ph").str() == "X") {
      spans.insert(e.at("name").str());
      EXPECT_GE(e.at("dur").num(), 0.0) << e.at("name").str();
    } else if (e.at("ph").str() == "C") {
      counters.insert(e.at("name").str());
    }
  }
  for (const char* name :
       {"gemm", "conv_stage.fwd", "train.epoch", "serve.flush"}) {
    EXPECT_TRUE(spans.contains(name)) << "trace has no " << name << " span";
  }
  for (const char* name : {"monitor.coverage", "monitor.abstention_ewma",
                           "monitor.selective_risk", "serve.queue_depth"}) {
    EXPECT_TRUE(counters.contains(name)) << "trace has no " << name
                                         << " counter track";
  }
  for (const char* name :
       {"wm_train_loss", "wm_serve_requests_total",
        "wm_tensor_gemm_calls_total", "wm_monitor_coverage",
        "wm_monitor_alarms_total", "\nwm_monitor_alarm 1\n"}) {
    EXPECT_NE(prom.find(name), std::string::npos)
        << "registry dump has no " << name;
  }
}

}  // namespace
}  // namespace wm::obs
