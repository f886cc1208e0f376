// Evaluation metrics: clean test error (Err) and logit/confidence
// statistics.
//
// Robust test error (RErr) under any fault model — random, profiled-chip,
// L-inf noise, adversarial — has one entry point,
// RobustnessEvaluator(model, scheme).run(fault, data, n_trials, batch)
// (faults/evaluator.h); api::Experiment (or a ber_run config file) wraps it
// for declared scenarios and sweeps.
#pragma once

#include "data/dataset.h"
#include "nn/sequential.h"
#include "quant/quantizer.h"

namespace ber {

struct EvalResult {
  float error = 0.0f;       // fraction misclassified
  float confidence = 0.0f;  // mean max softmax probability
};

// Forward-only evaluation (eval mode).
EvalResult evaluate(Sequential& model, const Dataset& data, long batch = 200);

// Clean test error; if `scheme` is non-null the parameters are
// quantize-dequantized for the evaluation and restored afterwards.
float test_error(Sequential& model, const Dataset& data,
                 const QuantScheme* scheme = nullptr, long batch = 200);

struct LogitStats {
  float mean_max_logit = 0.0f;
  float mean_logit_gap = 0.0f;  // max minus runner-up
  float mean_confidence = 0.0f;
};

// Logit/confidence statistics on a dataset (Fig. 6).
LogitStats logit_stats(Sequential& model, const Dataset& data,
                       long batch = 200);

}  // namespace ber
