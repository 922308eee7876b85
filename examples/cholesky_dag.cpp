// Blocked Cholesky on the dependency engine: the dense-dependence proof
// app for src/dag (see src/apps/cholesky). Factorizes a deterministic
// SPD matrix as one task per tile kernel, verifies the factorization by
// reconstruction (||L L^T - A||_F / ||A||_F), and exits nonzero if the
// residual is not at machine-precision level.
//
//   ./cholesky_dag --ranks 8 --tiles 8 --tile 16 [--backend threads]
#include <cstdio>
#include <cstring>

#include "apps/cholesky/cholesky.hpp"
#include "base/options.hpp"
#include "pgas/runtime.hpp"

using namespace scioto;

int main(int argc, char** argv) {
  Options opts("cholesky_dag", "tiled Cholesky on the DAG scheduler");
  opts.add_int("ranks", 8, "number of SPMD ranks");
  opts.add_int("tiles", 8, "tile grid side (matrix is tiles*tile square)");
  opts.add_int("tile", 16, "tile side length b");
  opts.add_string("backend", "sim", "sim | threads");
  opts.add_int("seed", 42, "sim scheduling seed");
  if (!opts.parse(argc, argv)) return 0;

  pgas::Config cfg;
  cfg.nranks = static_cast<int>(opts.get_int("ranks"));
  cfg.machine = sim::cluster2008_uniform();
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const bool threads = opts.get_string("backend") == "threads";
  if (threads) cfg.backend = pgas::BackendKind::Threads;

  apps::CholeskyConfig ccfg;
  ccfg.tiles = static_cast<int>(opts.get_int("tiles"));
  ccfg.tile = static_cast<int>(opts.get_int("tile"));

  apps::CholeskyResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    apps::CholeskyResult r = apps::cholesky_dag(rt, ccfg);
    if (rt.me() == 0) res = r;
  });

  const bool ok = res.residual < 1e-12;
  std::printf("cholesky %dx%d tiles of %d on %d ranks (%s): "
              "residual=%.3e -> %s\n",
              ccfg.tiles, ccfg.tiles, ccfg.tile, cfg.nranks,
              threads ? "threads" : "sim", res.residual,
              ok ? "OK" : "FAILED");
  std::printf("dag: %llu tasks (%llu fired remotely), depth %llu, "
              "%llu conflict retries, %.3f ms %s\n",
              static_cast<unsigned long long>(res.dag.nodes_run),
              static_cast<unsigned long long>(res.dag.remote_fires),
              static_cast<unsigned long long>(res.dag.max_depth),
              static_cast<unsigned long long>(res.dag.conflict_retries),
              res.elapsed_ms, threads ? "wall" : "virtual");
  return ok ? 0 : 1;
}
