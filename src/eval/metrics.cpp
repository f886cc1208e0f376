#include "eval/metrics.h"

#include <algorithm>

#include "quant/net_quantizer.h"
#include "tensor/ops.h"

namespace ber {

EvalResult evaluate(Sequential& model, const Dataset& data, long batch) {
  const long n = data.size();
  long wrong = 0;
  double conf_sum = 0.0;
  Tensor images;
  std::vector<int> labels;
  for (long start = 0; start < n; start += batch) {
    const long end = std::min(start + batch, n);
    data.batch(start, end, images, labels);
    Tensor logits = model.forward(images, /*training=*/false);
    softmax_rows(logits);
    for (long i = 0; i < end - start; ++i) {
      const long pred = argmax_row(logits, i);
      if (pred != labels[static_cast<std::size_t>(i)]) ++wrong;
      conf_sum += logits.at(i, pred);
    }
  }
  EvalResult r;
  r.error = static_cast<float>(wrong) / static_cast<float>(n);
  r.confidence = static_cast<float>(conf_sum / n);
  return r;
}

float test_error(Sequential& model, const Dataset& data,
                 const QuantScheme* scheme, long batch) {
  if (scheme == nullptr) return evaluate(model, data, batch).error;
  const auto params = model.params();
  WeightStash stash;
  stash.save(params);
  NetQuantizer quantizer(*scheme);
  const NetSnapshot snap = quantizer.quantize(params);
  quantizer.write_dequantized(snap, params);
  const float err = evaluate(model, data, batch).error;
  stash.restore(params);
  return err;
}

LogitStats logit_stats(Sequential& model, const Dataset& data, long batch) {
  const long n = data.size();
  double max_sum = 0.0, gap_sum = 0.0, conf_sum = 0.0;
  Tensor images;
  std::vector<int> labels;
  for (long start = 0; start < n; start += batch) {
    const long end = std::min(start + batch, n);
    data.batch(start, end, images, labels);
    Tensor logits = model.forward(images, /*training=*/false);
    const long k = logits.shape(1);
    for (long i = 0; i < end - start; ++i) {
      const float* row = logits.data() + i * k;
      float best = row[0], second = -1e30f;
      for (long c = 1; c < k; ++c) {
        if (row[c] > best) {
          second = best;
          best = row[c];
        } else if (row[c] > second) {
          second = row[c];
        }
      }
      max_sum += best;
      gap_sum += best - second;
    }
    softmax_rows(logits);
    for (long i = 0; i < end - start; ++i) {
      conf_sum += logits.at(i, argmax_row(logits, i));
    }
  }
  LogitStats s;
  s.mean_max_logit = static_cast<float>(max_sum / n);
  s.mean_logit_gap = static_cast<float>(gap_sum / n);
  s.mean_confidence = static_cast<float>(conf_sum / n);
  return s;
}

}  // namespace ber
