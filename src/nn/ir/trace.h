#ifndef ATNN_NN_IR_TRACE_H_
#define ATNN_NN_IR_TRACE_H_

#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"
#include "nn/autograd.h"
#include "nn/ir/graph.h"
#include "nn/ops.h"

namespace atnn::nn::ir {

/// Runs `forward` once under NoGradGuard + ArenaScope with tracing enabled
/// on the calling thread and returns the captured graph. The probe forward
/// must be batch-shaped: every batch-varying value carries `probe_batch`
/// rows (pass the row count of the probe block you feed the model).
///
/// Fails (InvalidArgument) without side effects when the forward uses an op
/// outside the IR vocabulary, consumes a value produced by an untraced op,
/// or calls EmbeddingLookup outside EmbeddingBag::Forward (the bag is what
/// binds lookups to PlanInput field indices). The failure reaches the
/// caller of CompileGeneratorPlan, which rejects the snapshot at publish.
StatusOr<Graph> TraceGraph(int64_t probe_batch,
                           const std::function<Var()>& forward);

/// True while TraceGraph is running on this thread.
bool TracingActive();

namespace detail {
extern thread_local bool t_tracing;
}  // namespace detail

// ---------------------------------------------------------------------------
// Capture hooks, called by the op functions (nn/ops.cc, nn/autograd.cc,
// nn/layers.cc) after constructing their result. Each is a no-op unless a
// trace is active on the calling thread; the inline gate keeps the cost on
// the non-tracing hot path to one thread-local load.
// ---------------------------------------------------------------------------

void TraceUnaryImpl(OpKind kind, const Var& out, const Var& in, float alpha);
void TraceBinaryImpl(OpKind kind, const Var& out, const Var& a, const Var& b);
void TraceDenseAffineImpl(const Var& out, const Var& x, const Var& w,
                          const Var& b, Activation act);
void TraceConcatImpl(const Var& out, std::span<const Var> parts);
void TraceSliceImpl(const Var& out, const Var& x, int64_t begin);
void TraceEmbedLookupImpl(const Var& out, const Var& table);
void TraceConstantImpl(const Var& out);
void TraceNoteFieldLookupImpl(int32_t field, int64_t hash_buckets);
void TraceNoteDenseInputImpl();

inline void TraceUnary(OpKind kind, const Var& out, const Var& in,
                       float alpha = 0.0f) {
  if (detail::t_tracing) TraceUnaryImpl(kind, out, in, alpha);
}
inline void TraceBinary(OpKind kind, const Var& out, const Var& a,
                        const Var& b) {
  if (detail::t_tracing) TraceBinaryImpl(kind, out, a, b);
}
inline void TraceDenseAffine(const Var& out, const Var& x, const Var& w,
                             const Var& b, Activation act) {
  if (detail::t_tracing) TraceDenseAffineImpl(out, x, w, b, act);
}
inline void TraceConcat(const Var& out, std::span<const Var> parts) {
  if (detail::t_tracing) TraceConcatImpl(out, parts);
}
inline void TraceSlice(const Var& out, const Var& x, int64_t begin) {
  if (detail::t_tracing) TraceSliceImpl(out, x, begin);
}
inline void TraceEmbedLookup(const Var& out, const Var& table) {
  if (detail::t_tracing) TraceEmbedLookupImpl(out, table);
}
inline void TraceConstant(const Var& out) {
  if (detail::t_tracing) TraceConstantImpl(out);
}
/// EmbeddingBag::Forward calls this immediately before each EmbeddingLookup
/// so the tracer knows which PlanInput field (and which feature hash) feeds
/// the next lookup's ids.
inline void TraceNoteFieldLookup(int32_t field, int64_t hash_buckets) {
  if (detail::t_tracing) TraceNoteFieldLookupImpl(field, hash_buckets);
}
/// EmbeddingBag::Forward calls this immediately before wrapping the dense
/// block in a Constant; the tracer then captures that constant as the
/// batch-varying dense input instead of baking the probe values in.
inline void TraceNoteDenseInput() {
  if (detail::t_tracing) TraceNoteDenseInputImpl();
}

}  // namespace atnn::nn::ir

#endif  // ATNN_NN_IR_TRACE_H_
