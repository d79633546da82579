// perfbench: runs one benchmark workload against an in-process HAWQ
// cluster and writes the raw measurements (per-statement latencies,
// answer checks, counters, spans, layer probes) as one JSON document.
// run.py turns that document into the end-to-end and per-layer metrics.
//
// Usage:
//   hawq_perfbench --workload tpch_power|short_mix|etl_load --seed N
//                  --seconds S --trace 0|1 --out FILE --data-dir DIR
//                  [--setup-only]
//
// Every workload is a closed loop with one client. The engine is only
// called through its public headers; spans are recorded here, around
// those calls, never inside the engine.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/crc32c.h"
#include "common/serde.h"
#include "engine/cluster.h"
#include "engine/recovery.h"
#include "engine/session.h"
#include "planner/planner.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "storage/codec.h"
#include "storage/format.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "tpch/tpch_queries.h"

namespace hawq::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr double kScaleFactor = 0.02;
constexpr int kSegments = 4;
constexpr uint64_t kTpchBaseSeed = 19940401;
// Rows the storage write / serde probes copy out of the first lineitem
// segment file (bounds the probe's memory).
constexpr size_t kProbeRows = 20000;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void DieUnlessOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Small JSON writer helpers.

std::string Q(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// splitmix64: a seedable, portable statement-stream generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written with the result document.

struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t stmt = -1;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int64_t Begin(const char* name, int64_t parent, int64_t stmt) {
    if (!on_) return -1;
    Span s;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.stmt = stmt;
    s.name = name;
    s.start_us = NowUs();
    spans_.push_back(s);
    return s.id;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_us = NowUs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static double NowUs() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessStart)
        .count();
  }
  bool on_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int64_t parent, int64_t stmt)
      : t_(t), id_(t->Begin(name, parent, stmt)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Host probes.

struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

/// Aggregate CPU line of /proc/stat (zeros where it is unreadable).
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user and nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& x) { return x.tv_sec + x.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Generated-data facts used by the answer checks.

/// Bytes of one field in dbgen's '|'-separated text form.
size_t TextBytes(const Datum& d, TypeId type) {
  if (d.is_null()) return 0;
  switch (type) {
    case TypeId::kDate: return 10;
    case TypeId::kDouble: {
      char buf[48];
      return static_cast<size_t>(
          std::snprintf(buf, sizeof(buf), "%.2f", d.as_double()));
    }
    case TypeId::kString: return d.as_str().size();
    case TypeId::kBool: return 1;
    default: return std::to_string(d.as_int()).size();
  }
}

size_t RowTextBytes(const Row& row, const Schema& schema) {
  size_t n = 1;  // newline
  for (size_t i = 0; i < row.size(); ++i) {
    n += TextBytes(row[i], schema.field(i).type) + 1;  // field + '|'
  }
  return n;
}

struct Q1Group {
  double qty = 0, base = 0, disc_price = 0, charge = 0;
  int64_t n = 0;
};

struct Facts {
  uint64_t user_bytes = 0;  // dbgen text bytes of all eight tables
  std::vector<int64_t> order_keys;
  std::vector<double> order_prices;
  // Lineitem sorted by l_orderkey.
  std::vector<int64_t> l_orderkey;
  std::vector<double> l_price_prefix;      // prefix sums of l_extendedprice
  std::vector<uint64_t> l_proj_bytes_prefix;  // etl_load's 5-column text
  std::map<std::string, Q1Group> q1;
  double q6 = 0;
};

// Columns etl_load copies into its target (lineitem indices).
const int kEtlCols[] = {1, 0, 4, 5, 10};

Facts GenerateFacts(const tpch::GenOptions& g) {
  Facts f;
  auto count_bytes = [&](const Schema& s) {
    return [&f, s](const Row& r) {
      f.user_bytes += RowTextBytes(r, s);
      return Status::OK();
    };
  };
  DieUnlessOk(tpch::GenRegion(count_bytes(tpch::RegionSchema())), "gen");
  DieUnlessOk(tpch::GenNation(count_bytes(tpch::NationSchema())), "gen");
  DieUnlessOk(tpch::GenSupplier(g, count_bytes(tpch::SupplierSchema())),
              "gen");
  DieUnlessOk(tpch::GenCustomer(g, count_bytes(tpch::CustomerSchema())),
              "gen");
  DieUnlessOk(tpch::GenPart(g, count_bytes(tpch::PartSchema())), "gen");
  DieUnlessOk(tpch::GenPartsupp(g, count_bytes(tpch::PartsuppSchema())),
              "gen");
  const Schema os = tpch::OrdersSchema();
  const Schema ls = tpch::LineitemSchema();
  const int64_t q1_cutoff = *ParseDate("1998-12-01") - 90;
  const int64_t q6_lo = *ParseDate("1994-01-01");
  const int64_t q6_hi = AddMonths(q6_lo, 12);
  struct Line {
    int64_t key;
    double price;
    uint32_t proj_bytes;
  };
  std::vector<Line> lines;
  DieUnlessOk(
      tpch::GenOrdersAndLineitem(
          g,
          [&](const Row& o) {
            f.user_bytes += RowTextBytes(o, os);
            f.order_keys.push_back(o[0].as_int());
            f.order_prices.push_back(o[3].as_double());
            return Status::OK();
          },
          [&](const Row& l) {
            f.user_bytes += RowTextBytes(l, ls);
            uint32_t proj = 1;
            for (int c : kEtlCols) {
              proj += static_cast<uint32_t>(TextBytes(l[c], ls.field(c).type)) + 1;
            }
            lines.push_back({l[0].as_int(), l[5].as_double(), proj});
            if (l[10].as_int() <= q1_cutoff) {
              Q1Group& a = f.q1[l[8].as_str() + "|" + l[9].as_str()];
              double dp = l[5].as_double() * (1 - l[6].as_double());
              a.qty += l[4].as_double();
              a.base += l[5].as_double();
              a.disc_price += dp;
              a.charge += dp * (1 + l[7].as_double());
              ++a.n;
            }
            int64_t ship = l[10].as_int();
            double disc = l[6].as_double();
            if (ship >= q6_lo && ship < q6_hi && disc >= 0.05 - 1e-9 &&
                disc <= 0.07 + 1e-9 && l[4].as_double() < 24) {
              f.q6 += l[5].as_double() * disc;
            }
            return Status::OK();
          }),
      "gen");
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.key < b.key; });
  f.l_orderkey.reserve(lines.size());
  f.l_price_prefix.assign(1, 0.0);
  f.l_proj_bytes_prefix.assign(1, 0);
  for (const Line& l : lines) {
    f.l_orderkey.push_back(l.key);
    f.l_price_prefix.push_back(f.l_price_prefix.back() + l.price);
    f.l_proj_bytes_prefix.push_back(f.l_proj_bytes_prefix.back() +
                                    l.proj_bytes);
  }
  return f;
}

/// Index range [first, last) of lineitem rows with lo <= l_orderkey < hi.
std::pair<size_t, size_t> LineRange(const Facts& f, int64_t lo, int64_t hi) {
  auto b = std::lower_bound(f.l_orderkey.begin(), f.l_orderkey.end(), lo);
  auto e = std::lower_bound(f.l_orderkey.begin(), f.l_orderkey.end(), hi);
  return {static_cast<size_t>(b - f.l_orderkey.begin()),
          static_cast<size_t>(e - f.l_orderkey.begin())};
}

bool Near(double got, double want) {
  return std::abs(got - want) <= 1e-6 * std::max(1.0, std::abs(want));
}

// ---------------------------------------------------------------------------
// Result digests for the TPC-H reference check: rows rendered with doubles
// rounded to 5 significant digits (merge order across segments changes
// the last bits of a sum), sorted, then FNV-1a hashed.

std::string DigestRows(const std::vector<Row>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Datum& d : row) {
      switch (d.kind) {
        case Datum::Kind::kNull: line += "N"; break;
        case Datum::Kind::kDouble: {
          double v = d.f64 == 0 ? 0.0 : d.f64;  // fold -0
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.4e", v);
          line += buf;
          break;
        }
        case Datum::Kind::kStr: line += d.str; break;
        default: line += std::to_string(d.i64); break;
      }
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& l : lines) {
    for (char c : l) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= '\n';
    h *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int64_t InsertCount(const engine::QueryResult& r) {
  const std::string p = "INSERT ";
  if (r.message.rfind(p, 0) != 0) return -1;
  return std::stoll(r.message.substr(p.size()));
}

// ---------------------------------------------------------------------------
// Statements and workloads.

struct Stmt {
  int kind = 0;
  std::string sql;
  /// Parsed-statement shape: SELECT and INSERT ... SELECT get analyze and
  /// plan probes in the traced run.
  bool has_select = false;
  /// Returns "" when the answer is right, otherwise why it is wrong.
  std::function<std::string(const engine::QueryResult&)> check;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string out;
  std::string data_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<std::string> Kinds() const = 0;
  /// Storage clause of the TPC-H tables.
  virtual std::string WithOptions() const = 0;
  virtual bool Durable() const = 0;
  /// Extra setup after the TPC-H load (part of setup time).
  virtual void AfterLoad(engine::Session*) {}
  /// The next unit of work: a TPC-H round, a shuffled block of short
  /// statements, or an ETL cycle. The loop only stops between units.
  virtual std::vector<Stmt> NextUnit() = 0;
  /// Statements the loop runs before timing starts.
  virtual std::vector<Stmt> WarmUp() { return NextUnit(); }
  /// Called by the loop after each statement with its outcome.
  virtual void Acknowledge(const Stmt&, const engine::QueryResult*) {}
  /// Writes run after the timed loop and before the durability reopen.
  virtual std::vector<Stmt> BeforeReopen() { return {}; }
  /// Durability check after reopening: "" when every acknowledged write
  /// survived.
  virtual std::string CheckAfterReopen(engine::Session*) { return ""; }
  /// Called once the data is loaded and the facts are known, before the
  /// warm-up.
  virtual void Start(engine::Cluster* c) = 0;
  /// Stored bytes / user bytes of the workload's tables.
  virtual double StoredRatio() const = 0;
};

/// HDFS bytes of one replica of every file of the given tables.
uint64_t StoredBytes(engine::Cluster* c, const std::vector<catalog::TableOid>& oids) {
  uint64_t total = 0;
  for (catalog::TableOid oid : oids) {
    for (int s = 0; s < c->num_segments(); ++s) {
      std::string prefix = "/hawq/seg" + std::to_string(s) + "/t" +
                           std::to_string(oid) + ".";
      for (const std::string& p : c->hdfs()->List(prefix)) {
        auto sz = c->hdfs()->FileSize(p);
        if (sz.ok()) total += *sz;
      }
    }
  }
  return total;
}

std::vector<catalog::TableOid> TableOids(engine::Cluster* c,
                                         const std::vector<std::string>& names) {
  auto txn = c->tx_manager()->Begin();
  std::vector<catalog::TableOid> oids;
  for (const std::string& n : names) {
    auto t = c->catalog()->GetTable(txn.get(), n);
    DieUnlessOk(t.status(), "catalog lookup " + n);
    oids.push_back(t->oid);
  }
  DieUnlessOk(c->tx_manager()->Commit(txn.get()), "commit");
  return oids;
}

/// Stored bytes / dbgen text bytes of the eight TPC-H tables.
double TpchStoredRatio(engine::Cluster* c, const Facts& f) {
  const std::vector<std::string> tables = {"region", "nation",   "supplier",
                                           "customer", "part", "partsupp",
                                           "orders", "lineitem"};
  return static_cast<double>(StoredBytes(c, TableOids(c, tables))) /
         static_cast<double>(f.user_bytes);
}

std::string ExpectScalar(const engine::QueryResult& r) {
  if (r.rows.size() != 1 || r.rows[0].size() != 1) {
    return "expected one value, got " + std::to_string(r.rows.size()) + " rows";
  }
  return "";
}

// TPC-H queries left out of tpch_power. Q15 keeps the suppliers whose
// revenue equals the maximum revenue, which a second aggregation computes.
// The engine carries DECIMAL as a binary double, and the two sums add the
// same values in different orders across segments, so the equality often
// fails and Q15 returns no rows where exact decimals find one supplier.
const std::set<int> kLeftOutQueries = {15};

// Rows sorted, for comparing results whose row order is not fixed.
std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = Datum::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

// "" when two results hold the same rows, doubles within Near (the merge
// order across segments changes the last bits of a sum).
std::string SameRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " rows, the first round had " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size() != want[i].size()) return "row width differs from the first round";
    for (size_t j = 0; j < got[i].size(); ++j) {
      const Datum& g = got[i][j];
      const Datum& w = want[i][j];
      bool same = g.kind == Datum::Kind::kDouble || w.kind == Datum::Kind::kDouble
                      ? !g.is_null() && !w.is_null() && Near(g.as_double(), w.as_double())
                      : Datum::Compare(g, w) == 0;
      if (!same) return "row " + std::to_string(i) + " differs from the first round";
    }
  }
  return "";
}

// TPC-H power: rounds of Q1..Q22 (without kLeftOutQueries) over CO/zlib
// tables.
class TpchPower : public Workload {
 public:
  explicit TpchPower(const Facts* f) : f_(f) {
    for (const auto& q : tpch::Queries()) {
      if (!kLeftOutQueries.count(q.id)) queries_.push_back(&q);
    }
  }
  std::vector<std::string> Kinds() const override {
    std::vector<std::string> k;
    for (const tpch::TpchQuery* q : queries_) k.push_back(q->name);
    return k;
  }
  std::string WithOptions() const override {
    return "WITH (orientation=column, compresstype=zlib)";
  }
  bool Durable() const override { return false; }
  std::vector<Stmt> NextUnit() override {
    std::vector<Stmt> round;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const tpch::TpchQuery& q = *queries_[i];
      Stmt s;
      s.kind = static_cast<int>(i);
      s.sql = q.sql;
      s.has_select = true;
      // Q1 and Q6 are checked by brute force; every other query against
      // its first result in this run. run.py also checks digests against
      // reference_digests.json for seed 1.
      if (q.id == 1) {
        s.check = [this](const engine::QueryResult& r) { return CheckQ1(r); };
      } else if (q.id == 6) {
        s.check = [this](const engine::QueryResult& r) { return CheckQ6(r); };
      } else {
        s.check = [this, id = q.id](const engine::QueryResult& r) {
          std::vector<Row> rows = SortedRows(r.rows);
          auto it = first_.find(id);
          if (it == first_.end()) {
            first_.emplace(id, std::move(rows));
            return std::string();
          }
          return SameRows(rows, it->second);
        };
      }
      round.push_back(std::move(s));
    }
    return round;
  }
  void Start(engine::Cluster* c) override { stored_ratio_ = TpchStoredRatio(c, *f_); }
  double StoredRatio() const override { return stored_ratio_; }

 private:
  std::string CheckQ1(const engine::QueryResult& r) const {
    if (r.rows.size() != f_->q1.size()) return "Q1 group count differs";
    for (const Row& row : r.rows) {
      auto it = f_->q1.find(row[0].as_str() + "|" + row[1].as_str());
      if (it == f_->q1.end()) return "Q1 unexpected group";
      const Q1Group& a = it->second;
      if (!Near(row[2].as_double(), a.qty) || !Near(row[3].as_double(), a.base) ||
          !Near(row[4].as_double(), a.disc_price) ||
          !Near(row[5].as_double(), a.charge) || row[9].as_int() != a.n) {
        return "Q1 aggregate differs from brute force";
      }
    }
    return "";
  }
  std::string CheckQ6(const engine::QueryResult& r) const {
    std::string e = ExpectScalar(r);
    if (!e.empty()) return e;
    return Near(r.rows[0][0].as_double(), f_->q6) ? "" : "Q6 differs from brute force";
  }
  const Facts* f_;
  std::vector<const tpch::TpchQuery*> queries_;
  // Sorted rows of each query's first result (the warm-up round).
  std::map<int, std::vector<Row>> first_;
  double stored_ratio_ = 0;
};

// Short statements over row-oriented AO tables with a durable data_dir.
class ShortMix : public Workload {
 public:
  ShortMix(const Facts* f, uint64_t seed) : f_(f), rng_(seed) {}
  std::vector<std::string> Kinds() const override {
    return {"point", "gather", "range", "insert"};
  }
  std::string WithOptions() const override { return ""; }
  bool Durable() const override { return true; }
  std::vector<Stmt> NextUnit() override {
    std::vector<Stmt> block = {Point(), Gather(), Range(), Insert()};
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng_.Next() % i]);
    }
    return block;
  }
  std::vector<Stmt> WarmUp() override {
    std::vector<Stmt> all;
    for (int i = 0; i < 10; ++i) {
      for (Stmt& s : NextUnit()) all.push_back(std::move(s));
    }
    return all;
  }
  void Acknowledge(const Stmt& s, const engine::QueryResult* r) override {
    if (s.kind == 3 && r != nullptr && InsertCount(*r) == 1) ++acked_;
  }
  std::string CheckAfterReopen(engine::Session* s) override {
    auto r = s->Execute("SELECT count(*) FROM orders");
    if (!r.ok()) return "count after reopen failed: " + r.status().ToString();
    int64_t want = static_cast<int64_t>(f_->order_keys.size()) + acked_;
    int64_t got = r->rows.at(0).at(0).as_int();
    return got == want ? "" : "orders has " + std::to_string(got) +
                                  " rows after reopen, acknowledged " +
                                  std::to_string(want);
  }
  // Measured before the loop: the inserted orders have no dbgen text.
  void Start(engine::Cluster* c) override { stored_ratio_ = TpchStoredRatio(c, *f_); }
  double StoredRatio() const override { return stored_ratio_; }

 private:
  Stmt Point() {
    size_t i = rng_.Next() % f_->order_keys.size();
    double want = f_->order_prices[i];
    Stmt s;
    s.kind = 0;
    s.has_select = true;
    s.sql = "SELECT o_totalprice FROM orders WHERE o_orderkey = " +
            std::to_string(f_->order_keys[i]);
    s.check = [want](const engine::QueryResult& r) {
      std::string e = ExpectScalar(r);
      if (!e.empty()) return e;
      return Near(r.rows[0][0].as_double(), want) ? std::string()
                                                  : std::string("wrong o_totalprice");
    };
    return s;
  }
  Stmt Gather() {
    Stmt s;
    s.kind = 1;
    s.has_select = true;
    s.sql = "SELECT count(*) FROM nation";
    s.check = [](const engine::QueryResult& r) {
      std::string e = ExpectScalar(r);
      if (!e.empty()) return e;
      return r.rows[0][0].as_int() == 25 ? std::string() : std::string("nation count != 25");
    };
    return s;
  }
  Stmt Range() {
    int64_t lo = rng_.Range(f_->l_orderkey.front(), f_->l_orderkey.back() - 100);
    auto [b, e] = LineRange(*f_, lo, lo + 100);
    double want = f_->l_price_prefix[e] - f_->l_price_prefix[b];
    bool empty = b == e;
    Stmt s;
    s.kind = 2;
    s.has_select = true;
    s.sql = "SELECT sum(l_extendedprice) FROM lineitem WHERE l_orderkey >= " +
            std::to_string(lo) + " AND l_orderkey < " + std::to_string(lo + 100);
    s.check = [want, empty](const engine::QueryResult& r) {
      std::string e = ExpectScalar(r);
      if (!e.empty()) return e;
      const Datum& d = r.rows[0][0];
      if (empty) return d.is_null() ? std::string() : std::string("sum over no rows not NULL");
      return Near(d.as_double(), want) ? std::string() : std::string("wrong range sum");
    };
    return s;
  }
  Stmt Insert() {
    // New orders take keys above every generated one, so the point
    // lookups and range sums never see them.
    if (next_key_ == 0) next_key_ = f_->order_keys.back() + 1;
    int64_t key = next_key_++;
    int64_t cust = rng_.Range(1, 1000);
    double price = static_cast<double>(rng_.Range(100000, 50000000)) / 100.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "INSERT INTO orders VALUES (%lld, %lld, 'O', %.2f, "
                  "date '1998-08-02', '1-URGENT', 'Clerk#000000001', 0, "
                  "'perfbench')",
                  static_cast<long long>(key), static_cast<long long>(cust), price);
    Stmt s;
    s.kind = 3;
    s.sql = buf;
    s.check = [](const engine::QueryResult& r) {
      return InsertCount(r) == 1 ? std::string() : "unexpected tag " + r.message;
    };
    return s;
  }

  const Facts* f_;
  Rng rng_;
  int64_t next_key_ = 0;
  int64_t acked_ = 0;
  double stored_ratio_ = 0;
};

// ETL: INSERT ... SELECT ranges and VALUES batches into a CO/zlib table
// distributed on another key, truncated every 10 inserts.
class EtlLoad : public Workload {
 public:
  static constexpr int kInsertsPerCycle = 10;
  static constexpr int kValuesRows = 500;

  EtlLoad(const Facts* f, uint64_t seed) : f_(f), rng_(seed) {}
  std::vector<std::string> Kinds() const override {
    return {"insert_select", "insert_values", "count_check", "truncate"};
  }
  std::string WithOptions() const override { return ""; }
  bool Durable() const override { return true; }
  void AfterLoad(engine::Session* s) override {
    DieUnlessOk(
        s->Execute("CREATE TABLE lineitem_by_part (l_partkey INT8, "
                   "l_orderkey INT8, l_quantity DECIMAL(15,2), "
                   "l_extendedprice DECIMAL(15,2), l_shipdate DATE) "
                   "WITH (orientation=column, compresstype=zlib) "
                   "DISTRIBUTED BY (l_partkey)")
            .status(),
        "create lineitem_by_part");
  }
  std::vector<Stmt> NextUnit() override {
    std::vector<Stmt> cycle;
    cycle_user_bytes_ = 0;
    for (int i = 0; i < kInsertsPerCycle; ++i) {
      cycle.push_back(i % 2 == 0 ? InsertSelect() : InsertValues());
    }
    Stmt count;
    count.kind = 2;
    count.has_select = true;
    count.sql = "SELECT count(*) FROM lineitem_by_part";
    count.check = [this](const engine::QueryResult& r) {
      std::string e = ExpectScalar(r);
      if (!e.empty()) return e;
      int64_t got = r.rows[0][0].as_int();
      return got == acked_ ? std::string()
                           : "target has " + std::to_string(got) +
                                 " rows, INSERTs acknowledged " +
                                 std::to_string(acked_);
    };
    cycle.push_back(std::move(count));
    Stmt trunc;
    trunc.kind = 3;
    trunc.sql = "TRUNCATE TABLE lineitem_by_part";
    cycle.push_back(std::move(trunc));
    return cycle;
  }
  void Acknowledge(const Stmt& s, const engine::QueryResult* r) override {
    if (r == nullptr) return;
    if (s.kind <= 1) {
      int64_t n = InsertCount(*r);
      if (n > 0) acked_ += n;
    } else if (s.kind == 2 && cycle_user_bytes_ > 0) {
      // The cycle's rows are all in; measure the target before TRUNCATE.
      ratios_.push_back(static_cast<double>(StoredBytes(c_, {target_oid_})) /
                        static_cast<double>(cycle_user_bytes_));
    } else if (s.kind == 3) {
      acked_ = 0;
    }
  }
  // The loop stops after a TRUNCATE, so the reopen would find nothing to
  // lose; load one more cycle's inserts first.
  std::vector<Stmt> BeforeReopen() override {
    std::vector<Stmt> cycle = NextUnit();
    cycle.pop_back();
    return cycle;
  }
  void Start(engine::Cluster* c) override {
    c_ = c;
    target_oid_ = TableOids(c, {"lineitem_by_part"})[0];
  }
  std::string CheckAfterReopen(engine::Session* s) override {
    auto r = s->Execute("SELECT count(*) FROM lineitem_by_part");
    if (!r.ok()) return "count after reopen failed: " + r.status().ToString();
    int64_t got = r->rows.at(0).at(0).as_int();
    return got == acked_ ? "" : "target has " + std::to_string(got) +
                                    " rows after reopen, acknowledged " +
                                    std::to_string(acked_);
  }
  double StoredRatio() const override {
    if (ratios_.empty()) return 0;
    std::vector<double> v = ratios_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  }

 private:
  Stmt InsertSelect() {
    int64_t lo_key = f_->l_orderkey.front(), hi_key = f_->l_orderkey.back();
    int64_t span = (hi_key - lo_key) / 10;
    int64_t lo = rng_.Range(lo_key, hi_key - span);
    auto [b, e] = LineRange(*f_, lo, lo + span);
    int64_t want = static_cast<int64_t>(e - b);
    cycle_user_bytes_ += f_->l_proj_bytes_prefix[e] - f_->l_proj_bytes_prefix[b];
    Stmt s;
    s.kind = 0;
    s.has_select = true;
    s.sql = "INSERT INTO lineitem_by_part SELECT l_partkey, l_orderkey, "
            "l_quantity, l_extendedprice, l_shipdate FROM lineitem WHERE "
            "l_orderkey >= " + std::to_string(lo) + " AND l_orderkey < " +
            std::to_string(lo + span);
    s.check = [want](const engine::QueryResult& r) {
      return InsertCount(r) == want ? std::string()
                                    : "INSERT ... SELECT tag " + r.message +
                                          ", expected " + std::to_string(want);
    };
    return s;
  }
  Stmt InsertValues() {
    std::string sql = "INSERT INTO lineitem_by_part VALUES ";
    for (int i = 0; i < kValuesRows; ++i) {
      // Braced initialization draws the values left to right.
      const std::string f[5] = {
          std::to_string(rng_.Range(1, 4000)), std::to_string(rng_.Range(1, 120000)),
          Fixed2(static_cast<double>(rng_.Range(1, 50))),
          Fixed2(static_cast<double>(rng_.Range(90000, 10000000)) / 100.0),
          DateToString(rng_.Range(8035, 10591))};
      cycle_user_bytes_ += 1;  // dbgen text: each field plus '|', newline
      for (const std::string& x : f) cycle_user_bytes_ += x.size() + 1;
      sql += (i ? ", (" : "(") + f[0] + ", " + f[1] + ", " + f[2] + ", " + f[3] +
             ", date '" + f[4] + "')";
    }
    Stmt s;
    s.kind = 1;
    s.sql = std::move(sql);
    s.check = [](const engine::QueryResult& r) {
      return InsertCount(r) == kValuesRows ? std::string()
                                           : "VALUES batch tag " + r.message;
    };
    return s;
  }
  static std::string Fixed2(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
  }

  const Facts* f_;
  Rng rng_;
  engine::Cluster* c_ = nullptr;
  catalog::TableOid target_oid_ = 0;
  int64_t acked_ = 0;
  uint64_t cycle_user_bytes_ = 0;
  std::vector<double> ratios_;
};

// ---------------------------------------------------------------------------
// Setup.

engine::ClusterOptions MakeClusterOptions(const Workload& w,
                                          const std::string& data_dir) {
  engine::ClusterOptions o;
  o.num_segments = kSegments;
  if (w.Durable()) o.data_dir = data_dir;
  return o;
}

/// Cluster fields that differ from a default-constructed ClusterOptions.
std::string NonDefaultOptionsJson(const engine::ClusterOptions& o) {
  const engine::ClusterOptions d;
  std::vector<std::string> kv;
  auto add = [&](const char* name, bool differs, const std::string& v) {
    if (differs) kv.push_back(Q(name) + ": " + v);
  };
  add("num_segments", o.num_segments != d.num_segments, std::to_string(o.num_segments));
  add("fabric", o.fabric != d.fabric, Q(o.fabric == engine::FabricKind::kTcp ? "tcp" : "udp"));
  add("compress_plans", o.compress_plans != d.compress_plans, o.compress_plans ? "true" : "false");
  add("enable_standby", o.enable_standby != d.enable_standby, o.enable_standby ? "true" : "false");
  add("fault_detector_thread", o.fault_detector_thread != d.fault_detector_thread,
      o.fault_detector_thread ? "true" : "false");
  add("slow_query_us", o.slow_query_us != d.slow_query_us, std::to_string(o.slow_query_us));
  add("enable_activity", o.enable_activity != d.enable_activity, o.enable_activity ? "true" : "false");
  add("enable_profiler", o.enable_profiler != d.enable_profiler, o.enable_profiler ? "true" : "false");
  add("profiler_period_us", o.profiler_period_us != d.profiler_period_us,
      std::to_string(o.profiler_period_us));
  add("enable_zone_maps", o.enable_zone_maps != d.enable_zone_maps, o.enable_zone_maps ? "true" : "false");
  add("enable_runtime_filters", o.enable_runtime_filters != d.enable_runtime_filters,
      o.enable_runtime_filters ? "true" : "false");
  add("cluster_mem_budget", o.cluster_mem_budget != d.cluster_mem_budget,
      std::to_string(o.cluster_mem_budget));
  add("max_query_retries", o.max_query_retries != d.max_query_retries,
      std::to_string(o.max_query_retries));
  add("query_log_capacity", o.query_log_capacity != d.query_log_capacity,
      std::to_string(o.query_log_capacity));
  add("checkpoint_every_records", o.checkpoint_every_records != d.checkpoint_every_records,
      std::to_string(o.checkpoint_every_records));
  add("data_dir", o.data_dir != d.data_dir, Q(o.data_dir.empty() ? "" : "<fresh local directory>"));
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) out += (i ? ", " : "") + kv[i];
  return out + "}";
}

struct SetupTimes {
  double setup_s = 0;
  double cluster_start_ms = 0;
  double load_s = 0;
};

std::unique_ptr<engine::Cluster> SetUp(Workload* w, const tpch::GenOptions& g,
                                       const engine::ClusterOptions& copts,
                                       SetupTimes* t) {
  if (!copts.data_dir.empty()) {
    std::filesystem::remove_all(copts.data_dir);
    std::filesystem::create_directories(copts.data_dir);
  }
  auto t0 = Clock::now();
  auto c = std::make_unique<engine::Cluster>(copts);
  t->cluster_start_ms = SecondsSince(t0) * 1e3;
  tpch::LoadOptions lo;
  lo.gen = g;
  lo.with_options = w->WithOptions();
  auto t1 = Clock::now();
  DieUnlessOk(tpch::LoadTpch(c.get(), lo), "LoadTpch");
  t->load_s = SecondsSince(t1);
  auto s = c->Connect();
  w->AfterLoad(s.get());
  t->setup_s = SecondsSince(kProcessStart);
  return c;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct Record {
  int kind = 0;
  double lat_us = 0;
  bool ok = false;
  std::string error;  // failure or wrong answer
  int64_t rows_written = 0;
  std::string digest;
  // Traced only.
  int slices = 0;
  size_t plan_bytes = 0;
  bool direct = false;
  int64_t wal_bytes = 0;
  std::vector<uint64_t> deltas;
};

// Registry counters whose per-statement deltas the traced run records.
const std::vector<std::string> kDeltaCounters = {
    "hdfs.bytes_read",
    "hdfs.locality_hits",
    "hdfs.locality_misses",
    "resource.spill_bytes",
    "scan.rows_filtered_bloom",
    "scan.bytes_skipped_zonemap",
    "interconnect.udp.data_packets",
    "interconnect.udp.retransmissions",
};

struct LoopResult {
  std::vector<Record> records;
  double wall_s = 0;
  double cpu_s = 0;
  // ru_maxrss once the loop has run min_stmts statements: a fixed amount
  // of work, while the whole run's peak grows with the statements a
  // run of fixed length gets through.
  long peak_rss_kb = 0;
  CpuTicks ticks0, ticks1;
};

class Runner {
 public:
  Runner(engine::Cluster* c, Workload* w, Tracer* tracer, bool digests)
      : c_(c), w_(w), tracer_(tracer), digests_(digests) {
    session_ = c->Connect();
    for (const std::string& n : kDeltaCounters) {
      counters_.push_back(c->metrics()->GetCounter(n));
    }
    if (!c->options().data_dir.empty()) {
      wal_path_ = engine::WalPath(c->options().data_dir);
    }
  }

  Record Run(const Stmt& s, bool traced) {
    Record rec;
    rec.kind = s.kind;
    int64_t stmt_id = static_cast<int64_t>(next_stmt_id_++);
    int64_t root = -1;
    std::vector<uint64_t> before;
    int64_t wal_before = 0;
    if (traced) {
      root = tracer_->Begin("stmt", -1, stmt_id);
      ProbeFrontEnd(s, root, stmt_id);
      for (obs::Counter* ctr : counters_) before.push_back(ctr->Get());
      wal_before = WalSize();
    }
    int64_t exec_span = traced ? tracer_->Begin("engine.execute", root, stmt_id) : -1;
    auto t0 = Clock::now();
    Result<engine::QueryResult> r = session_->Execute(s.sql);
    rec.lat_us = SecondsSince(t0) * 1e6;
    if (traced) {
      tracer_->End(exec_span);
      rec.wal_bytes = WalSize() - wal_before;
      for (size_t i = 0; i < counters_.size(); ++i) {
        rec.deltas.push_back(counters_[i]->Get() - before[i]);
      }
      tracer_->End(root);
    }
    if (!r.ok()) {
      rec.error = r.status().ToString();
      w_->Acknowledge(s, nullptr);
      return rec;
    }
    rec.ok = true;
    rec.rows_written = std::max<int64_t>(0, InsertCount(*r));
    rec.slices = r->num_slices;
    rec.plan_bytes = r->plan_bytes_compressed;
    rec.direct = r->direct_dispatch;
    if (s.check) rec.error = s.check(*r);
    if (digests_) rec.digest = DigestRows(r->rows);
    w_->Acknowledge(s, &*r);
    return rec;
  }

  LoopResult Loop(double seconds, size_t min_stmts, bool traced) {
    LoopResult lr;
    lr.ticks0 = ReadCpuTicks();
    double cpu0 = ProcessCpuSeconds();
    auto t0 = Clock::now();
    while (true) {
      for (const Stmt& s : w_->NextUnit()) lr.records.push_back(Run(s, traced));
      if (lr.peak_rss_kb == 0 && lr.records.size() >= min_stmts) lr.peak_rss_kb = PeakRssKb();
      if (SecondsSince(t0) >= seconds && lr.records.size() >= min_stmts) break;
    }
    lr.wall_s = SecondsSince(t0);
    lr.cpu_s = ProcessCpuSeconds() - cpu0;
    lr.ticks1 = ReadCpuTicks();
    if (probe_txn_ != nullptr) {
      DieUnlessOk(c_->tx_manager()->Commit(probe_txn_.get()), "probe commit");
      probe_txn_.reset();
    }
    return lr;
  }

  engine::Session* session() { return session_.get(); }
  void CloseSession() { session_.reset(); }

 private:
  int64_t WalSize() const {
    if (wal_path_.empty()) return 0;
    std::error_code ec;
    auto n = std::filesystem::file_size(wal_path_, ec);
    return ec ? 0 : static_cast<int64_t>(n);
  }

  /// sql.parse / sql.analyze / planner.plan spans, timed on the statement
  /// text right before it runs.
  void ProbeFrontEnd(const Stmt& s, int64_t root, int64_t stmt_id) {
    std::unique_ptr<sql::Statement> parsed;
    {
      ScopedSpan sp(tracer_, "sql.parse", root, stmt_id);
      auto p = sql::Parse(s.sql);
      if (p.ok()) parsed = std::move(*p);
    }
    if (parsed == nullptr || !s.has_select) return;
    const sql::SelectStmt* sel = parsed->select.get();
    if (sel == nullptr && parsed->insert != nullptr) sel = parsed->insert->select.get();
    if (sel == nullptr) return;
    // One read-committed transaction serves every probe of a traced loop
    // (each catalog read takes a fresh snapshot); a transaction per
    // statement would add a WAL fsync per statement to the traced run.
    if (probe_txn_ == nullptr) probe_txn_ = c_->tx_manager()->Begin();
    std::unique_ptr<sql::BoundQuery> bound;
    {
      ScopedSpan sp(tracer_, "sql.analyze", root, stmt_id);
      auto b = sql::Analyze(c_->catalog(), probe_txn_.get(), *sel);
      if (b.ok()) bound = std::move(*b);
    }
    if (bound != nullptr) {
      ScopedSpan sp(tracer_, "planner.plan", root, stmt_id);
      plan::Planner planner(c_->catalog(), probe_txn_.get(), c_->PlannerOptionsFor());
      (void)planner.PlanSelect(*bound);
    }
  }

  engine::Cluster* c_;
  Workload* w_;
  Tracer* tracer_;
  bool digests_;
  std::unique_ptr<engine::Session> session_;
  std::vector<obs::Counter*> counters_;
  std::string wal_path_;
  std::unique_ptr<tx::Transaction> probe_txn_;
  uint64_t next_stmt_id_ = 0;
};

// ---------------------------------------------------------------------------
// Layer probes (traced run only), over the workload's own lineitem files.

template <typename F>
double MedianOf(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct LineitemFiles {
  catalog::TableDesc desc;
  std::vector<catalog::SegFileDesc> files;
};

LineitemFiles GetLineitemFiles(engine::Cluster* c) {
  LineitemFiles lf;
  auto txn = c->tx_manager()->Begin();
  auto t = c->catalog()->GetTable(txn.get(), "lineitem");
  DieUnlessOk(t.status(), "lineitem desc");
  lf.desc = *t;
  auto f = c->catalog()->GetSegFiles(txn.get(), t->oid);
  DieUnlessOk(f.status(), "lineitem files");
  lf.files = *f;
  DieUnlessOk(c->tx_manager()->Commit(txn.get()), "commit");
  return lf;
}

std::string RunProbes(engine::Cluster* c, Tracer* tr) {
  std::map<std::string, double> m;
  LineitemFiles lf = GetLineitemFiles(c);
  const Schema schema = lf.desc.ToSchema();
  const storage::StorageOptions sopts = storage::StorageOptions::FromTable(lf.desc);
  hdfs::MiniHdfs* fs = c->hdfs();

  auto scan_ns = [&](const char* name, const std::vector<int>& proj) {
    return MedianOf(3, [&] {
      ScopedSpan sp(tr, name, -1, -1);
      uint64_t rows = 0;
      auto t0 = Clock::now();
      for (const auto& f : lf.files) {
        auto sc = storage::OpenTableScanner(fs, f.path, schema, sopts, f.eof, proj);
        DieUnlessOk(sc.status(), "probe scan");
        RowBatch batch;
        while (true) {
          auto more = (*sc)->NextBatch(&batch);
          DieUnlessOk(more.status(), "probe scan");
          if (!*more) break;
          rows += batch.size();
        }
      }
      return SecondsSince(t0) * 1e9 / static_cast<double>(std::max<uint64_t>(rows, 1));
    });
  };
  m["storage.scan_ns_per_row"] = scan_ns("probe.storage.scan", {});
  m["storage.scan2_ns_per_row"] = scan_ns("probe.storage.scan2", {0, 5});

  // Sample rows for the write / serde / codec probes.
  std::vector<Row> rows;
  {
    const auto& f = lf.files.front();
    auto sc = storage::OpenTableScanner(fs, f.path, schema, sopts, f.eof);
    DieUnlessOk(sc.status(), "probe sample");
    Row row;
    while (rows.size() < kProbeRows) {
      auto more = (*sc)->Next(&row);
      DieUnlessOk(more.status(), "probe sample");
      if (!*more) break;
      rows.push_back(row);
    }
  }
  int probe_file = 0;
  m["storage.write_ns_per_row"] = MedianOf(3, [&] {
    std::string path = "/perfbench/probe_write." + std::to_string(probe_file++);
    double ns;
    {
      ScopedSpan sp(tr, "probe.storage.write", -1, -1);
      auto t0 = Clock::now();
      auto w = storage::OpenTableWriter(fs, path, schema, sopts);
      DieUnlessOk(w.status(), "probe writer");
      for (const Row& r : rows) DieUnlessOk((*w)->Append(r), "probe append");
      DieUnlessOk((*w)->Close(), "probe close");
      ns = SecondsSince(t0) * 1e9 / static_cast<double>(rows.size());
    }
    for (const auto& p : storage::StorageFilePaths(path, sopts.kind, schema.num_fields())) {
      if (fs->Exists(p)) (void)fs->Delete(p);
    }
    return ns;
  });

  BufferWriter serialized;
  for (const Row& r : rows) SerializeRow(r, &serialized);
  const std::string& data = serialized.data();
  constexpr size_t kChunk = 64 * 1024;
  std::vector<std::string> packed;
  m["storage.compress_mb_s"] = MedianOf(3, [&] {
    ScopedSpan sp(tr, "probe.storage.compress", -1, -1);
    packed.clear();
    auto t0 = Clock::now();
    for (size_t off = 0; off < data.size(); off += kChunk) {
      auto z = storage::CodecCompress(catalog::Codec::kZlib, 1,
                                      std::string_view(data).substr(off, kChunk));
      DieUnlessOk(z.status(), "compress");
      packed.push_back(std::move(*z));
    }
    return static_cast<double>(data.size()) / 1e6 / SecondsSince(t0);
  });
  m["storage.decompress_mb_s"] = MedianOf(3, [&] {
    ScopedSpan sp(tr, "probe.storage.decompress", -1, -1);
    auto t0 = Clock::now();
    for (size_t i = 0; i < packed.size(); ++i) {
      size_t len = std::min(kChunk, data.size() - i * kChunk);
      auto z = storage::CodecDecompress(catalog::Codec::kZlib, packed[i], len);
      DieUnlessOk(z.status(), "decompress");
    }
    return static_cast<double>(data.size()) / 1e6 / SecondsSince(t0);
  });

  m["common.serde_ns_per_row"] = MedianOf(3, [&] {
    ScopedSpan sp(tr, "probe.common.serde", -1, -1);
    auto t0 = Clock::now();
    for (const Row& r : rows) {
      BufferWriter w;
      SerializeRow(r, &w);
      BufferReader rd(w.data());
      DieUnlessOk(DeserializeRow(&rd).status(), "deserialize");
    }
    return SecondsSince(t0) * 1e9 / static_cast<double>(rows.size());
  });
  {
    std::string buf(16 << 20, '\0');
    Rng rng(7);
    for (size_t i = 0; i < buf.size(); i += 8) {
      uint64_t v = rng.Next();
      std::memcpy(&buf[i], &v, 8);
    }
    volatile uint32_t sink = 0;
    m["common.crc32c_gb_s"] = MedianOf(3, [&] {
      ScopedSpan sp(tr, "probe.common.crc32c", -1, -1);
      auto t0 = Clock::now();
      sink = sink + common::Crc32c(buf.data(), buf.size());
      return static_cast<double>(buf.size()) / 1e9 / SecondsSince(t0);
    });
  }

  // HDFS positional reads over every lineitem file, 64 KiB at a time.
  m["hdfs.pread_mb_s"] = MedianOf(3, [&] {
    ScopedSpan sp(tr, "probe.hdfs.pread", -1, -1);
    uint64_t bytes = 0;
    std::string out(kChunk, '\0');
    auto t0 = Clock::now();
    for (const auto& f : lf.files) {
      for (const auto& p : storage::StorageFilePaths(f.path, sopts.kind, schema.num_fields())) {
        auto rd = fs->Open(p, f.segment);
        DieUnlessOk(rd.status(), "hdfs open");
        for (uint64_t off = 0; off < (*rd)->length(); off += kChunk) {
          auto n = (*rd)->PRead(off, out.data(), kChunk);
          DieUnlessOk(n.status(), "hdfs pread");
          bytes += *n;
        }
      }
    }
    return static_cast<double>(bytes) / 1e6 / SecondsSince(t0);
  });
  m["hdfs.append_mb_s"] = MedianOf(3, [&] {
    std::string path = "/perfbench/probe_append." + std::to_string(probe_file++);
    constexpr size_t kBytes = 8 << 20;
    double mbs;
    {
      ScopedSpan sp(tr, "probe.hdfs.append", -1, -1);
      auto t0 = Clock::now();
      auto w = fs->Create(path, 0);
      DieUnlessOk(w.status(), "hdfs create");
      for (size_t off = 0; off < kBytes; off += kChunk) {
        DieUnlessOk((*w)->Append(data.data() + (off % (data.size() - kChunk)), kChunk),
                    "hdfs append");
      }
      DieUnlessOk((*w)->Close(), "hdfs close");
      mbs = static_cast<double>(kBytes) / 1e6 / SecondsSince(t0);
    }
    (void)fs->Delete(path);
    return mbs;
  });

  // Interconnect: N senders x (one 64 B chunk + EoS) -> one receiver on
  // the master host, through the cluster's own fabric.
  net::Interconnect* fabric = c->fabric();
  const int master_host = c->num_segments();
  auto gather_ms = [&](int senders, size_t chunk_bytes, size_t chunks) {
    uint64_t qid = c->NextQueryId();
    auto recv = fabric->OpenRecv(qid, 1, 0, master_host, senders);
    DieUnlessOk(recv.status(), "open recv");
    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    std::atomic<bool> send_ok{true};
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
      threads.emplace_back([&, s] {
        auto send = fabric->OpenSend(qid, 1, s, s % c->num_segments(), {master_host});
        if (!send.ok()) {
          send_ok = false;
          return;
        }
        {
          std::unique_lock<std::mutex> g(mu);
          cv.wait(g, [&] { return go; });
        }
        std::string chunk(chunk_bytes, 'x');
        for (size_t i = 0; i < chunks; ++i) {
          if (!(*send)->Send(0, chunk).ok()) send_ok = false;
        }
        if (!(*send)->SendEos().ok()) send_ok = false;
      });
    }
    auto t0 = Clock::now();
    {
      std::lock_guard<std::mutex> g(mu);
      go = true;
    }
    cv.notify_all();
    size_t got = 0;
    while (true) {
      auto ch = (*recv)->Recv();
      if (!ch.ok()) {
        send_ok = false;
        break;
      }
      if (!ch->has_value()) break;
      ++got;
    }
    double ms = SecondsSince(t0) * 1e3;
    for (auto& t : threads) t.join();
    if (!send_ok || got != static_cast<size_t>(senders) * chunks) {
      Die("interconnect probe lost data");
    }
    return ms;
  };
  for (int n : {1, 4, 8, 16}) {
    std::string name = "interconnect.gather_ms.s" + std::to_string(n);
    m[name] = MedianOf(15, [&] {
      ScopedSpan sp(tr, "probe.interconnect.gather", -1, -1);
      return gather_ms(n, 64, 1);
    });
  }
  m["interconnect.stream_mb_s"] = MedianOf(3, [&] {
    ScopedSpan sp(tr, "probe.interconnect.stream", -1, -1);
    double ms = gather_ms(1, 8 * 1024, 1024);
    return 8.0 * 1024 * 1024 / 1e6 / (ms / 1e3);
  });

  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + Q(k) + ": " + Num(v);
    first = false;
  }
  return out + "}";
}

/// Self-time per executor node kind from hawq_stat_profile.
std::map<std::string, double> ProfileSelfUs(engine::Session* s) {
  std::map<std::string, double> out;
  auto r = s->Execute("SELECT node_kind, sum(self_us) FROM hawq_stat_profile GROUP BY node_kind");
  DieUnlessOk(r.status(), "profile view");
  for (const Row& row : r->rows) out[row[0].as_str()] = row[1].as_double();
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string RecordsJson(const std::vector<Record>& recs, bool traced) {
  std::ostringstream o;
  o << "[";
  for (size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    o << (i ? ",\n" : "\n") << "{\"kind\": " << r.kind << ", \"lat_us\": " << Num(r.lat_us)
      << ", \"ok\": " << (r.ok ? "true" : "false") << ", \"error\": " << Q(r.error)
      << ", \"rows_written\": " << r.rows_written;
    if (!r.digest.empty()) o << ", \"digest\": " << Q(r.digest);
    if (traced) {
      o << ", \"slices\": " << r.slices << ", \"plan_bytes\": " << r.plan_bytes
        << ", \"direct\": " << (r.direct ? "true" : "false")
        << ", \"wal_bytes\": " << r.wal_bytes << ", \"deltas\": {";
      for (size_t k = 0; k < r.deltas.size(); ++k) {
        o << (k ? ", " : "") << Q(kDeltaCounters[k]) << ": " << r.deltas[k];
      }
      o << "}";
    }
    o << "}";
  }
  o << "]";
  return o.str();
}

std::string LoopJson(const LoopResult& lr, bool traced) {
  std::ostringstream o;
  o << "{\"wall_s\": " << Num(lr.wall_s) << ", \"cpu_s\": " << Num(lr.cpu_s)
    << ", \"steal_ticks\": " << (lr.ticks1.steal - lr.ticks0.steal)
    << ", \"total_ticks\": " << (lr.ticks1.total - lr.ticks0.total)
    << ", \"peak_rss_kb\": " << lr.peak_rss_kb
    << ", \"records\": " << RecordsJson(lr.records, traced) << "}";
  return o.str();
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::ostringstream o;
  o << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? ",\n" : "\n") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"stmt\": " << s.stmt << ", \"name\": " << Q(s.name)
      << ", \"start_us\": " << Num(s.start_us) << ", \"end_us\": " << Num(s.end_us) << "}";
  }
  o << "]";
  return o.str();
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--out") a.out = val();
    else if (k == "--data-dir") a.data_dir = val();
    else if (k == "--setup-only") a.setup_only = true;
    else Die("unknown argument " + k);
  }
  if (a.out.empty() || a.data_dir.empty()) Die("--out and --data-dir are required");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  tpch::GenOptions gen;
  gen.sf = kScaleFactor;
  gen.seed = kTpchBaseSeed + args.seed;
  const uint64_t stream_seed = args.seed * 0x100000001B3ULL + 17;

  // Facts come from a separate generator pass; they are built lazily after
  // setup so they never count toward setup time.
  Facts facts;
  std::unique_ptr<Workload> w;
  if (args.workload == "tpch_power") {
    w = std::make_unique<TpchPower>(&facts);
  } else if (args.workload == "short_mix") {
    w = std::make_unique<ShortMix>(&facts, stream_seed);
  } else if (args.workload == "etl_load") {
    w = std::make_unique<EtlLoad>(&facts, stream_seed);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  const engine::ClusterOptions copts = MakeClusterOptions(*w, args.data_dir);

  SetupTimes st;
  std::unique_ptr<engine::Cluster> cluster = SetUp(w.get(), gen, copts, &st);
  std::ostringstream out;
  out << "{\"workload\": " << Q(args.workload) << ", \"seed\": " << args.seed
      << ", \"setup\": {\"setup_s\": " << Num(st.setup_s)
      << ", \"cluster_start_ms\": " << Num(st.cluster_start_ms)
      << ", \"load_s\": " << Num(st.load_s) << "}";
  if (args.setup_only) {
    cluster.reset();
    std::filesystem::remove_all(args.data_dir);
    std::ofstream(args.out) << out.str() << "}\n";
    return 0;
  }
  facts = GenerateFacts(gen);
  w->Start(cluster.get());

  Tracer tracer(args.trace);
  const bool digests = args.workload == "tpch_power";
  auto runner = std::make_unique<Runner>(cluster.get(), w.get(), &tracer, digests);
  std::vector<Record> warm;
  for (const Stmt& s : w->WarmUp()) warm.push_back(runner->Run(s, false));
  const size_t min_stmts = 100;  // enough for a resolvable p90

  out << ", \"kinds\": [";
  auto kinds = w->Kinds();
  for (size_t i = 0; i < kinds.size(); ++i) out << (i ? ", " : "") << Q(kinds[i]);
  out << "], \"context\": {\"cores\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << Q(PERFBENCH_BUILD_TYPE) << ", \"compiler\": "
      << Q(kCompiler) << ", \"sf\": " << Num(kScaleFactor)
      << ", \"segments\": " << kSegments << ", \"lineitem_rows\": " << facts.l_orderkey.size()
      << ", \"user_bytes\": " << facts.user_bytes << ", \"gen_seed\": " << gen.seed
      << ", \"stream_seed\": " << stream_seed
      << ", \"cluster_options\": " << NonDefaultOptionsJson(copts);
  if (args.workload == "tpch_power") {
    out << ", \"left_out_queries\": [";
    const char* sep = "";
    for (int id : kLeftOutQueries) {
      out << sep << Q(tpch::Query(id).name);
      sep = ", ";
    }
    out << "]";
  }
  out << "}";
  out << ", \"warmup\": " << RecordsJson(warm, false);

  std::map<std::string, double> prof0, prof1;
  obs::HistogramSnapshot admit0, admit1;
  if (!args.trace) {
    LoopResult lr = runner->Loop(args.seconds, min_stmts, false);
    out << ", \"timed\": " << LoopJson(lr, false);
  } else {
    // The traced run splits its time between an untraced and a traced
    // phase; their throughput difference is the tracing overhead.
    LoopResult plain = runner->Loop(args.seconds / 2, min_stmts, false);
    out << ", \"untraced\": " << LoopJson(plain, false);
    prof0 = ProfileSelfUs(runner->session());
    admit0 = cluster->metrics()->SnapshotHistograms()["resource.admit_wait_us"];
    LoopResult traced = runner->Loop(args.seconds / 2, min_stmts, true);
    admit1 = cluster->metrics()->SnapshotHistograms()["resource.admit_wait_us"];
    out << ", \"traced\": " << LoopJson(traced, true);
    auto q = runner->session()->Execute("SELECT query, peak_mem_bytes FROM hawq_stat_queries");
    DieUnlessOk(q.status(), "queries view");
    out << ", \"query_peak_mem_bytes\": [";
    bool first = true;
    for (const Row& row : q->rows) {
      if (row[0].as_str().find("hawq_stat_") != std::string::npos) continue;
      out << (first ? "" : ", ") << row[1].as_int();
      first = false;
    }
    out << "]";
    prof1 = ProfileSelfUs(runner->session());
    out << ", \"profile_self_us\": {";
    first = true;
    for (const auto& [k, v] : prof1) {
      out << (first ? "" : ", ") << Q(k) << ": " << Num(v - prof0[k]);
      first = false;
    }
    out << "}, \"admit_wait\": {\"count\": " << (admit1.count - admit0.count)
        << ", \"sum_us\": " << (admit1.sum - admit0.sum) << "}";
    out << ", \"probes\": " << RunProbes(cluster.get(), &tracer);
    auto g0 = Clock::now();
    {
      ScopedSpan sp(&tracer, "probe.tpch.gen", -1, -1);
      auto discard = [](const Row&) { return Status::OK(); };
      DieUnlessOk(tpch::GenRegion(discard), "gen");
      DieUnlessOk(tpch::GenNation(discard), "gen");
      DieUnlessOk(tpch::GenSupplier(gen, discard), "gen");
      DieUnlessOk(tpch::GenCustomer(gen, discard), "gen");
      DieUnlessOk(tpch::GenPart(gen, discard), "gen");
      DieUnlessOk(tpch::GenPartsupp(gen, discard), "gen");
      DieUnlessOk(tpch::GenOrdersAndLineitem(gen, discard, discard), "gen");
    }
    out << ", \"gen_s\": " << Num(SecondsSince(g0));
  }
  out << ", \"stored_ratio\": " << Num(w->StoredRatio());

  // End-of-run durability check: shut down, reopen over the same data_dir
  // (crash recovery runs in the constructor), count acknowledged writes.
  std::string durability_error;
  double recovery_ms = 0;
  if (w->Durable()) {
    std::vector<Record> writes;
    for (const Stmt& s : w->BeforeReopen()) writes.push_back(runner->Run(s, false));
    out << ", \"before_reopen\": " << RecordsJson(writes, false);
    runner->CloseSession();
    cluster.reset();
    auto t0 = Clock::now();
    cluster = std::make_unique<engine::Cluster>(copts);
    recovery_ms = SecondsSince(t0) * 1e3;
    auto s = cluster->Connect();
    durability_error = w->CheckAfterReopen(s.get());
  }
  out << ", \"durability\": {\"checked\": " << (w->Durable() ? "true" : "false")
      << ", \"error\": " << Q(durability_error) << ", \"recovery_ms\": " << Num(recovery_ms)
      << "}";
  if (args.trace) out << ", \"spans\": " << SpansJson(tracer.spans());
  runner.reset();
  cluster.reset();
  out << ", \"peak_rss_kb\": " << PeakRssKb() << "}\n";
  std::filesystem::remove_all(args.data_dir);
  std::ofstream f(args.out);
  f << out.str();
  if (!f) Die("cannot write " + args.out);
  return 0;
}

}  // namespace
}  // namespace hawq::perfbench

int main(int argc, char** argv) { return hawq::perfbench::Main(argc, argv); }
