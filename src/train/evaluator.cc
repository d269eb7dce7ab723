#include "train/evaluator.h"

#include <algorithm>

#include "models/neural_model.h"
#include "models/session_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "prof/op_profiler.h"
#include "util/check.h"
#include "util/timer.h"

namespace embsr {

std::vector<double> EvalResult::ReciprocalRanksAt(int k) const {
  std::vector<double> out;
  out.reserve(ranks.size());
  for (int r : ranks) out.push_back(r <= k ? 1.0 / r : 0.0);
  return out;
}

EvalResult Evaluate(Recommender* model, const std::vector<Example>& test,
                    const std::vector<int>& ks, size_t max_examples) {
  EMBSR_TRACE_SPAN("eval/evaluate");
  prof::MaybeInitFromEnv();
  static obs::Counter* example_counter =
      obs::Registry::Global().GetCounter("eval/examples");
  static obs::Gauge* throughput_gauge =
      obs::Registry::Global().GetGauge("eval/examples_per_sec");

  EMBSR_CHECK(model != nullptr);
  EvalResult result;
  RankAccumulator acc;
  const size_t n =
      max_examples == 0 ? test.size() : std::min(test.size(), max_examples);
  WallTimer timer;
  // Examples are scored in parallel: each loop index owns exactly one slot
  // of the preallocated rank vector, so the merged result is in example
  // order regardless of which thread scored what. The model must be pinned
  // in eval mode first so ScoreAll is read-only (see Recommender's
  // thread-safety contract); per-example model work (e.g. parallel MatMul)
  // automatically runs serially inside the pool, keeping each example's
  // scores bit-identical to a serial evaluation.
  model->EnsureEvalMode();
  result.ranks.assign(n, 0);
  // EMBSR_BATCH_SIZE > 1 scores collated session batches instead of single
  // examples — same slot-per-example merge, with each loop index owning one
  // whole batch's worth of contiguous rank slots. The default 1 keeps the
  // per-example path byte for byte.
  size_t forward_batch = static_cast<size_t>(ForwardBatchSizeFromEnv());
  auto* neural = dynamic_cast<NeuralSessionModel*>(model);
  if (neural != nullptr && forward_batch > 1) {
    // The batch size is an upper bound: when the loop really fans out, the
    // batches shrink so every pool lane gets one. Batched scoring is bitwise
    // equal at any B (DESIGN.md §16), so only lane occupancy changes.
    const size_t lanes = static_cast<size_t>(par::ThreadCount());
    if (lanes > 1 && !par::ThreadPool::InParallelRegion()) {
      forward_batch =
          std::max<size_t>(1, std::min(forward_batch, (n + lanes - 1) / lanes));
    }
    const int64_t num_batches =
        static_cast<int64_t>((n + forward_batch - 1) / forward_batch);
    par::For(0, num_batches, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t bi = lo; bi < hi; ++bi) {
        const size_t begin = static_cast<size_t>(bi) * forward_batch;
        const size_t end = std::min(begin + forward_batch, n);
        std::vector<const Example*> chunk;
        chunk.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) chunk.push_back(&test[i]);
        const std::vector<std::vector<float>> scores =
            neural->ScoreBatch(chunk);
        for (size_t i = begin; i < end; ++i) {
          result.ranks[i] =
              RankOfTarget(scores[i - begin], test[i].target);
        }
      }
    });
  } else {
    par::For(0, static_cast<int64_t>(n), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const Example& ex = test[static_cast<size_t>(i)];
        const std::vector<float> scores = model->ScoreAll(ex);
        result.ranks[static_cast<size_t>(i)] = RankOfTarget(scores, ex.target);
      }
    });
  }
  for (int rank : result.ranks) acc.Add(rank);
  const double seconds = timer.ElapsedSeconds();
  example_counter->Add(static_cast<int64_t>(n));
  if (seconds > 0.0) {
    throughput_gauge->Set(static_cast<double>(n) / seconds);
  }
  result.report = ReportAt(acc, ks);
  return result;
}

}  // namespace embsr
