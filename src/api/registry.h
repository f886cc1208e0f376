// String-keyed component registries for the declarative experiment API.
//
// Mirrors the kernel-backend registry (kernels/backend.h): every component a
// spec file can name — fault models, architectures, norms, datasets,
// quantization schemes, training methods — is constructible by name plus a
// JSON parameter map, so new scenarios are DECLARED (a config file, or a
// fluent api::Experiment) instead of compiled into another bespoke binary.
//
// Unknown names throw std::invalid_argument listing the known names; unknown
// parameter keys throw with the offending key and the accepted ones (see
// ParamReader) — spec typos fail loudly with an actionable message instead
// of silently running a default scenario.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"
#include "data/dataset.h"
#include "data/shapes.h"
#include "faults/fault_model.h"
#include "models/factory.h"
#include "nn/sequential.h"
#include "quant/quantizer.h"
#include "train/trainer.h"

namespace ber::api {

// ---------------------------------------------------------------- Registry --

// Generic name -> factory registry. R is the constructed type, Args the
// factory inputs (e.g. the JSON parameter map and a construction context).
template <typename Signature>
class Registry;

template <typename R, typename... Args>
class Registry<R(Args...)> {
 public:
  using Factory = std::function<R(Args...)>;

  explicit Registry(std::string what) : what_(std::move(what)) {}

  void add(const std::string& name, Factory factory) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [known, f] : entries_) {
      if (known == name) {
        throw std::invalid_argument(what_ + " registry: duplicate name \"" +
                                    name + "\"");
      }
    }
    entries_.emplace_back(name, std::move(factory));
  }

  bool contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [known, f] : entries_) {
      if (known == name) return true;
    }
    return false;
  }

  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, f] : entries_) out.push_back(name);
    return out;
  }

  R make(const std::string& name, Args... args) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [known, f] : entries_) {
        if (known == name) { factory = f; break; }
      }
    }
    if (!factory) {
      std::string msg = "unknown " + what_ + " \"" + name + "\" (known:";
      for (const std::string& n : names()) msg += " " + n;
      throw std::invalid_argument(msg + ")");
    }
    return factory(std::forward<Args>(args)...);
  }

 private:
  std::string what_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Factory>> entries_;
};

// -------------------------------------------------------------- ParamReader --

// Checked reader over a JSON parameter object: typed getters with defaults,
// and finish() rejects keys nobody consumed ("fault 'random': unknown key
// 'pp' (known: p, flip_fraction, ...)"). Every registry factory and spec
// section parser funnels its JSON through one of these.
class ParamReader {
 public:
  // `where` labels error messages (e.g. "fault \"random\""). `params` must
  // be an object (or null, treated as empty); other types throw.
  ParamReader(std::string where, const Json& params);

  bool has(const std::string& key) const;
  double number(const std::string& key, double fallback);
  double require_number(const std::string& key);
  long integer(const std::string& key, long fallback);
  bool boolean(const std::string& key, bool fallback);
  std::string str(const std::string& key, const std::string& fallback);
  std::string require_str(const std::string& key);
  // Array of numbers; missing key -> empty.
  std::vector<double> numbers(const std::string& key);
  // Raw subobject (missing -> null Json); marks the key consumed.
  const Json& raw(const std::string& key);

  // Throws std::invalid_argument on the first unconsumed key.
  void finish() const;

  [[noreturn]] void fail(const std::string& why) const;

 private:
  const Json* get(const std::string& key);

  std::string where_;
  const Json& params_;
  std::vector<std::string> consumed_;
  static const Json kNull;
};

// ------------------------------------------------------------ fault models --

// Construction context for fault-model factories. Everything is optional;
// factories that need a field throw an actionable error when it is missing
// (e.g. "adversarial" needs model/scheme/attack_set to mount the attack).
struct FaultContext {
  Sequential* model = nullptr;          // the network under evaluation
  const QuantScheme* scheme = nullptr;  // its deployment scheme
  const NetSnapshot* layout = nullptr;  // quantized layout (flip validation)
  const Dataset* attack_set = nullptr;  // gradient source for attacks
  int n_trials = 0;                     // trials the evaluator will run
};

using FaultModelRegistry =
    Registry<std::unique_ptr<FaultModel>(const Json&, const FaultContext&)>;

// The process-wide fault-model registry, preloaded with the five built-ins:
//   random      — RandomBitErrorModel   (p, flip/set1/set0 fractions, seed_base)
//   profiled    — ProfiledChipModel     (chip preset or geometry, voltage, seed)
//   ecc         — EccProtectedModel     (p, seed_base, persistent composition)
//   linf        — LinfNoiseModel        (rel_eps, seed_base)
//   adversarial — AdversarialBitErrorModel via BitFlipAttacker (budget,
//                 rounds, schedule, ...; control=true for the budget-matched
//                 random-flip control)
FaultModelRegistry& fault_models();

// Convenience: fault_models().make(name, params, ctx).
std::unique_ptr<FaultModel> make_fault_model(const std::string& name,
                                             const Json& params,
                                             const FaultContext& ctx);

// --------------------------------------------------- name <-> enum mappings --

// Each throws std::invalid_argument listing the known names on a miss.
Arch arch_by_name(const std::string& name);         // simplenet | resnet | mlp
NormKind norm_by_name(const std::string& name);     // groupnorm | batchnorm | none
Method method_by_name(const std::string& name);     // normal | clipping | randbet | pattbet
SyntheticConfig dataset_by_name(const std::string& name);  // c10 | mnist | c100
// Base scheme by name: normal | rquant | global_symmetric | rquant_trunc |
// symmetric_rounded (bit width applied by the caller).
QuantScheme quant_scheme_by_name(const std::string& name, int bits);

// The accepted names, for tooling (`ber_run --list`) — the single source of
// truth the *_by_name mappings accept.
const std::vector<std::string>& arch_names();
const std::vector<std::string>& norm_names();
const std::vector<std::string>& method_names();
const std::vector<std::string>& dataset_names();
const std::vector<std::string>& quant_scheme_names();

const char* arch_to_name(Arch arch);
const char* norm_to_name(NormKind norm);
const char* method_to_name(Method method);
const char* quant_scheme_to_name(const QuantScheme& scheme);  // "" if unnamed

// Parses a full quant section: {"scheme": "rquant", "bits": 8} with optional
// explicit axis overrides ("scope", "asymmetric", "unsigned", "rounded").
QuantScheme quant_from_json(const Json& params, const std::string& where);
Json quant_to_json(const QuantScheme& scheme);

}  // namespace ber::api
