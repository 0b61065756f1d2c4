#include "train/replica.h"

#include "common/macros.h"

namespace lazydp {

void
runReplicated(ExecContext &exec,
              const std::function<void(std::size_t, ExecContext &)> &body)
{
    if (exec.threads() <= 1) {
        for (std::size_t s = 0; s < kLotShards; ++s)
            body(s, exec);
        return;
    }
    exec.pool->run(kLotShards, [&body](std::size_t s) {
        body(s, ExecContext::serial());
    });
}

void
treeReduce4(const Tensor &q0, const Tensor &q1, const Tensor &q2,
            const Tensor &q3, Tensor &out, ExecContext &exec)
{
    static_assert(kLotShards == 4,
                  "treeReduce4 mirrors the fixed lot-shard count");
    const std::size_t n = out.size();
    LAZYDP_ASSERT(q0.size() == n && q1.size() == n && q2.size() == n &&
                      q3.size() == n,
                  "tree-reduce shape mismatch");
    const float *a = q0.data();
    const float *b = q1.data();
    const float *c = q2.data();
    const float *d = q3.data();
    float *o = out.data();
    parallelFor(exec, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            o[i] = (a[i] + b[i]) + (c[i] + d[i]);
    });
}

} // namespace lazydp
