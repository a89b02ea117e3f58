#include "src/tools/sort/sort_tool.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "src/tools/sort/local_sort.hpp"
#include "src/tools/sort/token_merge.hpp"

namespace bridge::tools {

namespace {

/// The first error any worker of a phase reported.
template <typename Result>
util::Status first_error(const std::vector<Result>& results) {
  for (const auto& r : results) {
    if (r.error != util::ErrorCode::kOk) {
      return util::Status(r.error, r.message);
    }
  }
  return util::ok_status();
}

/// The outputs of the pass that merges `runs`: runs 2j and 2j+1 merge into
/// `dst#m<pass>_<j>`, or into `dst` on the last pass.  Only what Create needs
/// is set.  An odd last run is carried over.
std::vector<core::FileMeta> pass_outputs(
    const std::vector<core::FileMeta>& runs, std::uint32_t pass,
    const std::string& dst) {
  std::vector<core::FileMeta> outputs(runs.size() / 2);
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    outputs[j].name = runs.size() == 2 ? dst
                                       : dst + "#m" + std::to_string(pass) +
                                             "_" + std::to_string(j);
    outputs[j].width = runs[2 * j].width + runs[2 * j + 1].width;
    outputs[j].start_lfs = runs[2 * j].start_lfs;
  }
  return outputs;
}

/// The sort's own files.  `live` holds each one it created that still
/// exists, so a failure anywhere can remove them all.
struct SortFiles {
  core::BridgeApi& client;
  std::vector<std::string> live;

  util::Status create(std::span<const core::FileMeta> shapes) {
    for (const auto& shape : shapes) {
      core::CreateOptions create;
      create.width = shape.width;
      create.start_lfs = shape.start_lfs;
      auto created = client.create(shape.name, create);
      if (!created.is_ok()) return created.status();
      live.push_back(shape.name);
    }
    return util::ok_status();
  }

  /// (Re-)open each file; the Bridge directory learns its size.
  util::Status open(std::span<core::FileMeta> metas) {
    for (auto& meta : metas) {
      auto open = client.open(meta.name);
      if (!open.is_ok()) return open.status();
      meta = open.value().meta;
    }
    return util::ok_status();
  }

  void forget(const std::vector<std::string>& names) {
    std::erase_if(live, [&](const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    });
  }

  /// Remove every live file with one remove_many, then return `error`, with
  /// a failed cleanup appended to its message.
  util::Status fail(const util::Status& error) {
    if (live.empty()) return error;
    auto cleanup = client.remove_many(live);
    if (cleanup.is_ok()) return error;
    return {error.code(),
            error.message() + "; cleanup: " + cleanup.to_string()};
  }
};

}  // namespace

util::Result<SortReport> run_sort_tool(sim::Context& ctx,
                                       core::BridgeApi& client,
                                       const std::string& src,
                                       const std::string& dst,
                                       SortOptions options) {
  sim::SimTime t0 = ctx.now();
  auto env = discover(client);
  if (!env.is_ok()) return env.status();

  auto src_open = client.open(src);
  if (!src_open.is_ok()) return src_open.status();
  core::FileMeta src_meta = src_open.value().meta;
  if (static_cast<core::Distribution>(src_meta.distribution) !=
      core::Distribution::kRoundRobin) {
    return util::invalid_argument("sort tool requires an interleaved source");
  }
  std::uint32_t p = env.value().num_lfs();
  std::uint32_t w = src_meta.width;

  SortReport report;
  report.records = src_meta.size_blocks;
  SortFiles files{client, {}};

  // --- Phase 1: local external sorts, one worker per constituent LFS. ---
  std::vector<core::FileMeta> runs(w);
  {
    WorkerGroup<LocalSortResult> group(ctx, options.fanout);
    for (std::uint32_t j = 0; j < w; ++j) {
      std::uint32_t lfs = (src_meta.start_lfs + j) % p;
      runs[j].name = dst + "#run" + std::to_string(j);
      runs[j].width = 1;
      runs[j].start_lfs = lfs;
      util::Status st = files.create({&runs[j], 1});
      if (st.is_ok()) st = files.open({&runs[j], 1});
      if (!st.is_ok()) {
        group.wait_all();  // never leave a spawned worker behind
        return files.fail(st);
      }

      LocalSortTask task;
      task.lfs_service = env.value().lfs_service(lfs);
      task.lfs_index = lfs;
      task.local_count =
          src_meta.size_blocks / w + (j < src_meta.size_blocks % w ? 1 : 0);
      task.src = src_meta;
      task.run = runs[j];
      task.tuning = options.tuning;
      group.spawn(env.value().lfs_node(lfs), "lsort@" + std::to_string(lfs),
                  [task](sim::Context& worker_ctx) {
                    return run_local_sort(worker_ctx, task);
                  });
    }
    // Re-open the runs so the Bridge directory learns their sizes.
    util::Status st = first_error(group.wait_all());
    if (st.is_ok()) st = files.open(runs);
    if (!st.is_ok()) return files.fail(st);
  }
  report.local_phase = ctx.now() - t0;

  // --- Phase 2: log-depth tree of parallel token merges. ---
  sim::SimTime merge_start = ctx.now();
  std::vector<core::FileMeta> outputs = pass_outputs(runs, 1, dst);
  util::Status st = files.create(outputs);
  if (st.is_ok()) st = files.open(outputs);
  // A width-1 source: its one sorted run is the result.
  if (st.is_ok() && runs.size() == 1) {
    st = client.rename(runs[0].name, dst).status();
    if (st.is_ok()) files.forget({runs[0].name});
  }
  if (!st.is_ok()) return files.fail(st);
  while (runs.size() > 1) {
    std::uint32_t pass = ++report.merge_passes;
    std::vector<core::FileMeta> next_runs = outputs;
    if (runs.size() % 2 == 1) next_runs.push_back(runs.back());
    std::vector<std::string> consumed;
    WorkerGroup<MergeWorkerResult> group(ctx, options.fanout);
    std::vector<TokenMerge> merges;
    for (std::size_t j = 0; j < outputs.size(); ++j) {
      const core::FileMeta& a = runs[2 * j];
      const core::FileMeta& b = runs[2 * j + 1];
      merges.emplace_back(ctx, env.value(), a, b, outputs[j], options.tuning);
      merges.back().launch(group);
      consumed.push_back(a.name);
      consumed.push_back(b.name);
    }

    // Give every worker a head start, then inject the start tokens.
    ctx.sleep(sim::msec(1));
    for (auto& merge : merges) merge.kick(ctx);
    // While this pass merges, create the next pass's outputs.  Their Opens
    // wait for the drain: an Open's LFS Info would queue behind merge I/O.
    auto following = pass_outputs(next_runs, pass + 1, dst);
    st = files.create(following);
    auto results = group.wait_all();
    if (st.is_ok()) st = first_error(results);
    // "Discard the old files in parallel."
    if (st.is_ok()) st = client.remove_many(consumed);
    if (st.is_ok()) files.forget(consumed);
    // Refresh the sizes of this pass's outputs, then open the next pass's.
    if (st.is_ok()) st = files.open({next_runs.data(), outputs.size()});
    if (st.is_ok()) st = files.open(following);
    if (!st.is_ok()) return files.fail(st);
    runs = std::move(next_runs);
    outputs = std::move(following);
  }
  report.merge_phase = ctx.now() - merge_start;
  report.total = ctx.now() - t0;
  return report;
}

}  // namespace bridge::tools
