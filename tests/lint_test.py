#!/usr/bin/env python3
"""Self-tests for scripts/hawq_lint.py.

Each test builds a tiny synthetic tree that violates exactly one rule and
asserts the linter trips on it — so a refactor of the linter that silently
stops detecting a rule fails CI, not a later reviewer.  The final test runs
the linter over the real repository and requires it to be clean, which is
the actual gate.

Run directly (python3 tests/lint_test.py) or through ctest (lint_test).
"""

import os
import shutil
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import hawq_lint  # noqa: E402


# A minimal sync.h whose LockRank enum satisfies rank-order.
GOOD_SYNC_H = """\
namespace hawq::sync {
enum class LockRank : int {
  kRankFree = -1,
  kLeaf = 0,
  kNetSocket = 10,
  kNetFabric = 12,
  kNetConn = 14,
  kNetEndpoint = 16,
  kHdfs = 20,
  kTxClog = 24,
  kCatalog = 30,
  kTxLock = 40,
  kTxManager = 42,
  kTxWal = 44,
  kResource = 46,
  kDispatcher = 50,
};
}
"""

GOOD_CHAOS_H = """\
inline const std::vector<std::string>& KnownPoints() {
  static const std::vector<std::string> kPoints = {
      "scan.batch"};
  return kPoints;
}
"""

GOOD_CATALOG = """\
HAWQ_METRIC("engine.queries")
HAWQ_METRIC_PREFIX("sync.lock_wait_us.")
"""

# Uses the one registered chaos point and the one cataloged metric so a
# baseline tree is clean.
GOOD_USER_CC = """\
void F() {
  common::chaos::Point("scan.batch");
  ctx->CheckCancel();
  m->GetCounter("engine.queries");
}
"""


class LintTree:
    """Temp repo skeleton the linter accepts, which tests then perturb."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="hawq_lint_test_")
        self.write("src/common/sync.h", GOOD_SYNC_H)
        self.write("src/common/chaos.h", GOOD_CHAOS_H)
        self.write("src/obs/metric_names.inc", GOOD_CATALOG)
        self.write("src/obs/lock_profile.cc",
                   'h = r->GetHistogram(std::string("sync.lock_wait_us.") + s);\n')
        self.write("src/engine/user.cc", GOOD_USER_CC)

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


class HawqLintTest(unittest.TestCase):
    def setUp(self):
        self.tree = LintTree()
        self.addCleanup(self.tree.cleanup)

    def rules_hit(self):
        return {v.rule for v in hawq_lint.run_lint(self.tree.root)}

    def assert_trips(self, rule):
        hit = self.rules_hit()
        self.assertIn(rule, hit,
                      f"expected rule {rule} to trip; got {sorted(hit)}")

    # ------------------------------------------------------------ baseline

    def test_baseline_tree_is_clean(self):
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # ---------------------------------------------------------- rank-order

    def test_reordered_lock_ranks_trip(self):
        # Swap hdfs above catalog: the acquisition argument breaks.
        self.tree.write("src/common/sync.h",
                        GOOD_SYNC_H.replace("kHdfs = 20", "kHdfs = 35"))
        self.assert_trips("rank-order")

    def test_missing_rank_trips(self):
        self.tree.write("src/common/sync.h",
                        GOOD_SYNC_H.replace("  kTxClog = 24,\n", ""))
        self.assert_trips("rank-order")

    # ---------------------------------------------------------- mutex-rank

    def test_default_rank_mutex_trips(self):
        self.tree.write("src/tx/bad.h",
                        "class A {\n"
                        "  Mutex mu_;\n"
                        "  int x HAWQ_GUARDED_BY(mu_);\n"
                        "};\n")
        self.assert_trips("mutex-rank")

    def test_foreign_subsystem_rank_trips(self):
        # An hdfs-layer mutex claiming the dispatcher rank.
        self.tree.write("src/hdfs/bad.h",
                        "class A {\n"
                        '  Mutex mu_{LockRank::kDispatcher, "hdfs.bad"};\n'
                        "  int x HAWQ_GUARDED_BY(mu_);\n"
                        "};\n")
        self.assert_trips("mutex-rank")

    def test_correct_rank_is_clean(self):
        self.tree.write("src/hdfs/good.h",
                        "class A {\n"
                        '  Mutex mu_{LockRank::kHdfs, "hdfs.good"};\n'
                        "  int x HAWQ_GUARDED_BY(mu_);\n"
                        "};\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # --------------------------------------------------------- mutex-guard

    def test_unguarded_mutex_trips(self):
        self.tree.write("src/catalog/bad.h",
                        "class A {\n"
                        '  Mutex mu_{LockRank::kCatalog, "catalog.bad"};\n'
                        "  int x;\n"
                        "};\n")
        self.assert_trips("mutex-guard")

    def test_allow_marker_with_reason_suppresses(self):
        self.tree.write(
            "src/catalog/ok.h",
            "class A {\n"
            "  // hawq-lint: allow(mutex-guard): guards captured local\n"
            '  Mutex mu_{LockRank::kCatalog, "catalog.ok"};\n'
            "};\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_bare_allow_marker_is_itself_a_violation(self):
        self.tree.write(
            "src/catalog/bare.h",
            "class A {\n"
            "  // hawq-lint: allow(mutex-guard)\n"
            '  Mutex mu_{LockRank::kCatalog, "catalog.bare"};\n'
            "};\n")
        self.assert_trips("allow-marker")

    # --------------------------------------------------------- cancel-poll

    def test_chaos_point_without_cancel_poll_trips(self):
        self.tree.write("src/executor/bad.cc",
                        "void G() {\n"
                        '  common::chaos::Point("scan.batch");\n'
                        "  DoWork();\n"
                        "}\n")
        self.assert_trips("cancel-poll")

    # -------------------------------------------------- exec-source-cancel

    def test_source_exec_without_cancel_trips(self):
        self.tree.write("src/executor/scan.cc",
                        "class MyScanExec : public ExecNode {\n"
                        "  Result<bool> NextBatch(RowBatch* batch) {\n"
                        "    return false;\n"
                        "  }\n"
                        "};\n")
        self.assert_trips("exec-source-cancel")

    def test_source_exec_with_cancel_is_clean(self):
        self.tree.write("src/executor/scan.cc",
                        "class MyScanExec : public ExecNode {\n"
                        "  Result<bool> NextBatch(RowBatch* batch) {\n"
                        "    HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());\n"
                        "    return false;\n"
                        "  }\n"
                        "};\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # ------------------------------------------------------ chaos-registry

    def test_unregistered_chaos_point_trips(self):
        self.tree.write("src/executor/bad.cc",
                        "void G() {\n"
                        '  common::chaos::Point("scan.unregistered");\n'
                        "  ctx->CheckCancel();\n"
                        "}\n")
        self.assert_trips("chaos-registry")

    def test_unregistered_point_in_test_helper_trips(self):
        self.tree.write("tests/failure_test.cc",
                        'KillSegmentOnVisit inj(&c, "motion.nope", 1, 2);\n')
        self.assert_trips("chaos-registry")

    def test_registered_point_never_visited_trips(self):
        self.tree.write(
            "src/common/chaos.h",
            GOOD_CHAOS_H.replace('"scan.batch"}',
                                 '"scan.batch", "ghost.point"}'))
        self.assert_trips("chaos-registry")

    # --------------------------------------------------------- metric-name

    def test_uncataloged_metric_trips(self):
        self.tree.write("src/engine/bad.cc",
                        'void H() { m->GetCounter("engine.rogue"); }\n')
        self.assert_trips("metric-name")

    def test_prefixed_dynamic_metric_is_clean(self):
        # lock_profile.cc in the baseline tree builds names dynamically
        # under a registered prefix and must stay clean.
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_dynamic_metric_without_prefix_trips(self):
        self.tree.write("src/engine/bad.cc",
                        "void H() { m->GetCounter(runtime_name); }\n")
        self.assert_trips("metric-name")

    def test_dead_catalog_entry_trips(self):
        self.tree.write("src/obs/metric_names.inc",
                        GOOD_CATALOG + 'HAWQ_METRIC("engine.never_used")\n')
        self.assert_trips("metric-name")

    # ------------------------------------------------------ tracker-charge

    def test_uncharged_build_container_trips(self):
        self.tree.write("src/executor/bad.cc",
                        "Status HashJoinExec::Build(Row key, Row row) {\n"
                        "  table_[KeyOf(key)].push_back(std::move(row));\n"
                        "  return Status::OK();\n"
                        "}\n")
        self.assert_trips("tracker-charge")

    def test_charged_build_container_is_clean(self):
        self.tree.write("src/executor/good.cc",
                        "Status HashJoinExec::Build(Row key, Row row) {\n"
                        "  if (!mem_.Charge(ApproxRowBytes(row))) {\n"
                        "    return Spill(std::move(key), std::move(row));\n"
                        "  }\n"
                        "  table_[KeyOf(key)].push_back(std::move(row));\n"
                        "  return Status::OK();\n"
                        "}\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_tracker_charge_outside_executor_is_clean(self):
        # The rule is scoped to src/executor/: an engine-side rows_ vector
        # (e.g. the stat-view snapshot) is not a build-side container.
        self.tree.write("src/engine/views.cc",
                        "void Snap() { rows_.push_back(MakeRow()); }\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_tracker_charge_allow_marker_suppresses(self):
        self.tree.write(
            "src/executor/ok.cc",
            "void Grand() {\n"
            "  // hawq-lint: allow(tracker-charge): single fixed entry\n"
            '  groups_[""] = Entry{};\n'
            "}\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # ------------------------------------------------------- durable-write

    def test_raw_ofstream_write_trips(self):
        self.tree.write("src/engine/bad.cc",
                        "void W(const std::string& p) {\n"
                        "  std::ofstream out(p, std::ios::binary);\n"
                        "}\n")
        self.assert_trips("durable-write")

    def test_raw_fwrite_trips(self):
        self.tree.write("src/storage/bad.cc",
                        "void W(std::FILE* f, const char* p, size_t n) {\n"
                        "  fwrite(p, 1, n, f);\n"
                        "}\n")
        self.assert_trips("durable-write")

    def test_raw_open_with_write_flag_trips(self):
        self.tree.write("src/tx/bad.cc",
                        "int W(const char* p) {\n"
                        "  return ::open(p, O_WRONLY | O_CREAT, 0644);\n"
                        "}\n")
        self.assert_trips("durable-write")

    def test_durable_cc_itself_is_exempt(self):
        self.tree.write("src/common/durable.cc",
                        "int W(const char* p) {\n"
                        "  int fd = ::open(p, O_WRONLY | O_CREAT, 0644);\n"
                        "  ::write(fd, p, 1);\n"
                        "  return fd;\n"
                        "}\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_durable_write_allow_marker_suppresses(self):
        self.tree.write(
            "src/obs/dump.cc",
            "void Dump(const std::string& p, const std::string& s) {\n"
            "  // hawq-lint: allow(durable-write): ephemeral debug dump\n"
            "  std::ofstream out(p);\n"
            "}\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    def test_read_only_open_is_clean(self):
        self.tree.write("src/hdfs/reader.cc",
                        "int R(const char* p) {\n"
                        "  return ::open(p, O_RDONLY | O_CLOEXEC);\n"
                        "}\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # -------------------------------------------------------------- banned

    def test_std_mutex_outside_sync_trips(self):
        self.tree.write("src/engine/bad.cc",
                        "std::mutex raw_mu;\n")
        self.assert_trips("banned")

    def test_array_new_trips(self):
        self.tree.write("src/engine/bad.cc",
                        "char* p = new char[128];\n")
        self.assert_trips("banned")

    def test_mt_unsafe_libc_trips(self):
        self.tree.write("src/engine/bad.cc",
                        "int r = rand();\n")
        self.assert_trips("banned")

    def test_banned_in_comment_is_clean(self):
        self.tree.write("src/engine/ok.cc",
                        "// never call rand() here\nint x = 0;\n")
        self.assertEqual(hawq_lint.run_lint(self.tree.root), [])

    # ------------------------------------------------------- the real gate

    def test_real_repository_is_clean(self):
        violations = hawq_lint.run_lint(REPO_ROOT)
        self.assertEqual(
            violations, [],
            "hawq-lint violations in the repository:\n" +
            "\n".join(str(v) for v in violations))


if __name__ == "__main__":
    unittest.main(verbosity=2)
