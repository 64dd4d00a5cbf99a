#include "bench/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include <sched.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/chunk_folding_layout.h"
#include "core/chunk_layout.h"
#include "core/tenant_session.h"
#include "core/transformer.h"
#include "bench/reference.h"
#include "bench/spans.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "testbed/crm_schema.h"

namespace perfbench {

using mtdb::Database;
using mtdb::QueryResult;
using mtdb::Result;
using mtdb::Row;
using mtdb::Status;
using mtdb::TypeId;
using mtdb::Value;
using mtdb::mapping::SchemaMapping;
using mtdb::mapping::TenantSession;
using Clock = std::chrono::steady_clock;

const char* OpName(Op op) {
  static const char* const kNames[kOps] = {"point_select", "wide_select",
                                           "report",       "update",
                                           "insert",       "delete"};
  return kNames[static_cast<int>(op)];
}

namespace {

// ---------------------------------------------------------------------
// Workloads

std::vector<WorkloadSpec> MakeWorkloads(bool smoke) {
  std::vector<WorkloadSpec> out;

  WorkloadSpec mem;
  mem.name = "oltp_mem";
  mem.clients = 1;
  mem.mix = {0.45, 0.15, 0.10, 0.15, 0.075, 0.075};
  out.push_back(mem);

  WorkloadSpec durable;
  durable.name = "oltp_durable";
  durable.durable = true;
  durable.clients = 1;
  durable.hot_rows = 4;
  durable.mix = {0.20, 0.10, 0.10, 0.40, 0.10, 0.10};
  out.push_back(durable);

  WorkloadSpec cold;
  cold.name = "report_cold";
  cold.chunk_table_layout = true;
  cold.clients = 1;
  cold.memory_budget_bytes = 5ull * 1024 * 1024;
  cold.warm_up = false;
  cold.mix = {0.15, 0.15, 0.40, 0.10, 0.10, 0.10};
  out.push_back(cold);

  if (smoke) {
    for (WorkloadSpec& w : out) {
      w.tenants = 4;
      w.rows_per_tenant = 150;
      w.memory_budget_bytes = std::min<uint64_t>(w.memory_budget_bytes,
                                                 8ull * 1024 * 1024);
    }
  }
  return out;
}

// The logical statements, in Op order. Every tenant enables the same
// extension, so each one has a single physical shape.
const char* const kSql[kOps] = {
    "SELECT name, status, amount FROM account WHERE id = ?",
    "SELECT name, status, amount, quantity, hospital, beds FROM account "
    "WHERE id = ?",
    "SELECT status, COUNT(*), SUM(amount) FROM account GROUP BY status",
    "UPDATE account SET quantity = ?, beds = ? WHERE id = ?",
    "INSERT INTO account (id, campaign_id, name, status, amount, quantity, "
    "hospital, beds) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
    "DELETE FROM account WHERE id = ?",
};
const char* const kReconcileSql =
    "SELECT id, name, status, amount, quantity, hospital, beds FROM account";
const char* const kExtension = "healthcare_account";

// ---------------------------------------------------------------------
// Shadow model

const char* const kStatuses[] = {"open", "won", "lost", "hold", "new"};
constexpr int kLoadedStatuses = 4;  // rows the run inserts get "new"
constexpr int kNewStatus = 4;
constexpr int64_t kNewIdBase = 1'000'000'000;
constexpr int64_t kClientIdSpan = 100'000'000;
constexpr int kInitialLivePerClient = 32;
constexpr int32_t kNoValue = -1;

struct Account {
  int64_t id = 0;
  std::string name;
  int status = 0;
  int64_t amount = 0;  // whole numbers, so SUM(amount) is exact
  std::string hospital;
  int32_t value = 0;  // quantity and beds always hold this same value
};

struct TenantModel {
  std::vector<Account> loaded;  // id = index + 1; never written by the run
  std::array<int64_t, kLoadedStatuses> count{};
  std::array<int64_t, kLoadedStatuses> sum{};
  std::vector<int64_t> hot_ids;
  /// Rows with status "new" that clients have acknowledged.
  std::atomic<int64_t> new_count{0};
  std::atomic<int64_t> new_sum{0};
  /// Inserts and deletes acknowledged so far, bumped after new_count and
  /// new_sum.
  std::atomic<int64_t> new_ops{0};
  /// Last acknowledged quantity/beds value per (loaded row, client).
  std::unique_ptr<std::atomic<int32_t>[]> last;
};

struct NewRow {
  int tenant = 0;
  Account row;
};

struct Model {
  int clients = 1;
  std::vector<std::unique_ptr<TenantModel>> tenants;
  /// Rows each client inserted and has not deleted yet, oldest first.
  std::vector<std::deque<NewRow>> live;
  std::vector<int64_t> next_new_id;
  std::vector<int32_t> next_value;
};

Account NewAccount(mtdb::Rng* rng, int64_t id, int status) {
  Account a;
  a.id = id;
  a.name = rng->Word(6, 12);
  a.status = status;
  a.amount = rng->Uniform(1, 5000);
  a.hospital = rng->Word(5, 10);
  a.value = static_cast<int32_t>(rng->Uniform(1, 1 << 30));
  return a;
}

NewRow MakeNewRow(Model* m, mtdb::Rng* rng, int client, int tenants) {
  NewRow r;
  r.tenant = static_cast<int>(rng->Uniform(0, tenants - 1));
  r.row = NewAccount(rng, m->next_new_id[client]++, kNewStatus);
  return r;
}

std::unique_ptr<Model> BuildModel(const WorkloadSpec& spec, uint64_t seed) {
  auto m = std::make_unique<Model>();
  m->clients = spec.clients;
  mtdb::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  // Tenant sizes spread evenly over [2/3, 4/3] of the mean; the seed
  // only decides which tenant gets which size, so the size distribution
  // (and with it set-up time and per-statement cost) is the same for
  // every seed.
  std::vector<int> sizes;
  for (int t = 0; t < spec.tenants; ++t) {
    int lo = spec.rows_per_tenant * 2 / 3;
    int span = spec.rows_per_tenant * 4 / 3 - lo;
    sizes.push_back(lo + (spec.tenants > 1 ? span * t / (spec.tenants - 1) : 0));
  }
  for (size_t t = sizes.size(); t > 1; --t) {
    std::swap(sizes[t - 1], sizes[static_cast<size_t>(
                                rng.Uniform(0, static_cast<int64_t>(t) - 1))]);
  }
  for (int t = 0; t < spec.tenants; ++t) {
    auto tm = std::make_unique<TenantModel>();
    int n = sizes[static_cast<size_t>(t)];
    for (int i = 0; i < n; ++i) {
      Account a = NewAccount(&rng, i + 1,
                             static_cast<int>(rng.Uniform(0, kLoadedStatuses - 1)));
      tm->count[static_cast<size_t>(a.status)]++;
      tm->sum[static_cast<size_t>(a.status)] += a.amount;
      tm->loaded.push_back(std::move(a));
    }
    std::set<int64_t> hot;
    while (static_cast<int>(hot.size()) < std::min(spec.hot_rows, n)) {
      hot.insert(rng.Uniform(1, n));
    }
    tm->hot_ids.assign(hot.begin(), hot.end());
    size_t slots = static_cast<size_t>(n) * static_cast<size_t>(spec.clients);
    tm->last = std::make_unique<std::atomic<int32_t>[]>(slots);
    for (size_t i = 0; i < slots; ++i) tm->last[i].store(kNoValue);
    m->tenants.push_back(std::move(tm));
  }
  m->live.resize(static_cast<size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    m->next_new_id.push_back(kNewIdBase + c * kClientIdSpan);
    m->next_value.push_back((1 << 30) + c);
    for (int i = 0; i < kInitialLivePerClient; ++i) {
      NewRow r = MakeNewRow(m.get(), &rng, c, spec.tenants);
      TenantModel& tm = *m->tenants[static_cast<size_t>(r.tenant)];
      tm.new_count += 1;
      tm.new_sum += r.row.amount;
      m->live[static_cast<size_t>(c)].push_back(std::move(r));
    }
  }
  return m;
}

// ---------------------------------------------------------------------
// Database set-up

struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaMapping> layout;
};

mtdb::DatabaseOptions DbOptions(const WorkloadSpec& spec,
                                const std::string& dir) {
  mtdb::DatabaseOptions opts;
  opts.engine.memory_budget_bytes = spec.memory_budget_bytes;
  if (spec.durable) opts.path = dir;
  return opts;
}

Result<Env> OpenEnv(const WorkloadSpec& spec, const mtdb::mapping::AppSchema* app,
                    const std::string& dir) {
  Env env;
  MTDB_ASSIGN_OR_RETURN(env.db, Database::Open(DbOptions(spec, dir)));
  if (spec.chunk_table_layout) {
    mtdb::mapping::ChunkLayoutOptions opts;
    opts.shape = mtdb::mapping::ChunkShape::Uniform(6);
    env.layout = std::make_unique<mtdb::mapping::ChunkTableLayout>(
        env.db.get(), app, opts);
  } else {
    env.layout = std::make_unique<mtdb::mapping::ChunkFoldingLayout>(
        env.db.get(), app);
  }
  return env;
}

/// Positions of the columns the benchmark writes, in the tenants'
/// effective column order (the same for every tenant).
struct Columns {
  std::vector<TypeId> types;
  size_t id = 0, campaign = 0, name = 0, status = 0, amount = 0,
         quantity = 0, hospital = 0, beds = 0;
};

Result<Columns> FindColumns(SchemaMapping* layout) {
  MTDB_ASSIGN_OR_RETURN(auto cols, layout->LogicalColumns(0, "account"));
  Columns out;
  std::map<std::string, size_t> pos;
  for (size_t i = 0; i < cols.size(); ++i) {
    pos[cols[i].first] = i;
    out.types.push_back(cols[i].second);
  }
  for (auto [name, slot] :
       {std::pair<const char*, size_t*>{"id", &out.id},
        {"campaign_id", &out.campaign}, {"name", &out.name},
        {"status", &out.status}, {"amount", &out.amount},
        {"quantity", &out.quantity}, {"hospital", &out.hospital},
        {"beds", &out.beds}}) {
    auto it = pos.find(name);
    if (it == pos.end()) {
      return Status::NotFound(std::string("account has no column ") + name);
    }
    *slot = it->second;
  }
  return out;
}

Row MakeRow(const Columns& cols, const Account& a) {
  Row row;
  for (TypeId t : cols.types) row.push_back(Value::Null(t));
  row[cols.id] = Value::Int64(a.id);
  row[cols.campaign] = Value::Int64(a.id % 50);
  row[cols.name] = Value::String(a.name);
  row[cols.status] = Value::String(kStatuses[a.status]);
  row[cols.amount] = Value::Double(static_cast<double>(a.amount));
  row[cols.quantity] = Value::Int32(a.value);
  row[cols.hospital] = Value::String(a.hospital);
  row[cols.beds] = Value::Int32(a.value);
  return row;
}

Status Load(Env* env, const Model& m) {
  SchemaMapping* layout = env->layout.get();
  MTDB_RETURN_IF_ERROR(layout->Bootstrap());
  for (size_t t = 0; t < m.tenants.size(); ++t) {
    MTDB_RETURN_IF_ERROR(layout->CreateTenant(static_cast<int>(t)));
    MTDB_RETURN_IF_ERROR(layout->EnableExtension(static_cast<int>(t), kExtension));
  }
  MTDB_ASSIGN_OR_RETURN(Columns cols, FindColumns(layout));
  std::vector<TenantSession> sessions;
  for (size_t t = 0; t < m.tenants.size(); ++t) {
    sessions.push_back(layout->OpenSession(static_cast<int>(t)));
    for (const Account& a : m.tenants[t]->loaded) {
      MTDB_RETURN_IF_ERROR(
          sessions.back().InsertRow("account", MakeRow(cols, a)).status());
    }
  }
  for (const std::deque<NewRow>& rows : m.live) {
    for (const NewRow& r : rows) {
      MTDB_RETURN_IF_ERROR(sessions[static_cast<size_t>(r.tenant)]
                               .InsertRow("account", MakeRow(cols, r.row))
                               .status());
    }
  }
  return Status::OK();
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Benchmark threads are moved round the CPUs the process may use. On a
// shared host each core's speed shifts with its neighbours' load (a
// fixed loop took 0.24 s on one core and 0.47 s on another at the same
// moment), so a thread left on one core would measure that core.
constexpr double kCpuHopSeconds = 0.05;

// How often each client runs the speed reference loop in the timed
// window (about 2.5% of the window).
constexpr double kReferenceSeconds = 0.02;

std::vector<int> AllowedCpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  return out;
}

/// Pins the calling thread to `cpus[slot % size]`, or to all of `cpus`
/// when `slot` < 0. Best effort: a refused call leaves the thread as is.
void PinThread(const std::vector<int>& cpus, int slot) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (slot < 0) {
    for (int cpu : cpus) CPU_SET(cpu, &set);
  } else {
    CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------
// Clients

/// Traced runs split the timed window into twelve blocks: the first
/// eight alternate plain and traced (tracing overhead and per-statement
/// I/O), the last four replay statements stage by stage.
enum class Mode { kPlain, kTraced, kReplay };
constexpr int kTraceBlocks = 12;
constexpr int kReplayFrom = 8;

struct Sample {
  double start_s;
  double us;
};

/// Per-op stage timings from replayed statements (microseconds).
struct LayerSamples {
  mtdb::SampleSet parse, transform, plan, execute, dml_map;
};

struct Client {
  int id = 0;
  mtdb::Rng rng;
  std::vector<TenantSession> sessions;
  bool tracing_on = false;
  bool insert_next = true;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t torn = 0;
  std::vector<std::string> problems;

  std::array<std::vector<Sample>, kOps> samples;  // plain-mode latencies
  std::array<uint64_t, 3> ops_in_mode{};
  uint64_t writes_before_replay = 0;
  double write_us_before_replay = 0;
  uint64_t stmts_before_replay = 0;
  std::array<uint64_t, kOps> traced_reads{};
  std::array<uint64_t, kOps> traced_wal_bytes{};
  std::array<uint64_t, kOps> traced_stmts{};
  uint64_t traced_select_rows = 0;
  uint64_t traced_select_reads = 0;
  std::array<LayerSamples, kOps> layers;
  uint64_t replay_plan_ns = 0;
  std::unique_ptr<SpanRecorder> spans;
  uint64_t next_request = 0;
  SpeedReference reference;
  mtdb::SampleSet reference_us;  // timed window only

  void Problem(std::string what) {
    mismatches++;
    if (problems.size() < 5) problems.push_back(std::move(what));
  }
};

struct Shared {
  const WorkloadSpec* spec = nullptr;
  Model* model = nullptr;
  Env* env = nullptr;
  std::vector<int> cpus;  // AllowedCpus() at start
};

/// What one statement did, for the checks.
struct Outcome {
  Status status;
  QueryResult rows;
  int64_t affected = 0;
};

double Num(const Value& v) { return v.is_null() ? -1 : v.AsDouble(); }

std::string Str(const Value& v) {
  return v.is_null() || v.type() != TypeId::kString ? std::string("<null>")
                                                    : v.AsString();
}

Op PickOp(const WorkloadSpec& spec, Client* c) {
  double u = c->rng.UniformDouble(0, 1);
  int op = 0;
  for (; op < kOps - 1; ++op) {
    u -= spec.mix[static_cast<size_t>(op)];
    if (u < 0) break;
  }
  Op picked = static_cast<Op>(op);
  if (picked == Op::kInsert || picked == Op::kDelete) {
    // Inserts and deletes alternate, so table size stays fixed.
    picked = c->insert_next ? Op::kInsert : Op::kDelete;
    c->insert_next = !c->insert_next;
  }
  return picked;
}

/// Runs a SELECT stage by stage through the public functions of each
/// layer: parse, §6.1 transform, plan, then QueryAst (which plans again
/// and executes; execute time is its duration minus the plan stage).
Outcome StagedSelect(const Shared& sh, Client* c, Op op, int tenant,
                     const std::vector<Value>& params, uint64_t req,
                     int32_t root) {
  Outcome out;
  SpanRecorder* sp = c->spans.get();
  LayerSamples& ls = c->layers[static_cast<size_t>(op)];
  auto t0 = Clock::now();
  int32_t s = sp->Begin("sql.parse", req, root);
  auto parsed = mtdb::sql::ParseSelect(kSql[static_cast<int>(op)]);
  sp->End(s);
  auto t1 = Clock::now();
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  s = sp->Begin("core.transform", req, root);
  mtdb::mapping::QueryTransformer transformer(
      sh.env->layout.get(), sh.env->layout->transform_options());
  auto phys = transformer.TransformSelect(tenant, **parsed);
  sp->End(s);
  auto t2 = Clock::now();
  if (!phys.ok()) {
    out.status = phys.status();
    return out;
  }
  s = sp->Begin("engine.plan", req, root);
  auto plan = mtdb::PlanSelect(**phys, sh.env->db->catalog(),
                               sh.env->db->planner_mode());
  sp->End(s);
  auto t3 = Clock::now();
  if (!plan.ok()) {
    out.status = plan.status();
    return out;
  }
  s = sp->Begin("exec.query_ast", req, root);
  auto rows = sh.env->db->QueryAst(**phys, params);
  sp->End(s);
  auto t4 = Clock::now();
  double plan_us = Micros(t2, t3);
  ls.parse.Add(Micros(t0, t1));
  ls.transform.Add(Micros(t1, t2));
  ls.plan.Add(plan_us);
  ls.execute.Add(Micros(t3, t4) - plan_us);
  c->replay_plan_ns += static_cast<uint64_t>(plan_us * 1000);
  if (!rows.ok()) {
    out.status = rows.status();
  } else {
    out.rows = std::move(*rows);
  }
  return out;
}

/// Times the DML's parse and its Phase (a) mapping (EXPLAIN MAPPING runs
/// the reconstruction read but writes nothing), then runs the statement.
/// The statement's own time is not used: the explain has just warmed
/// the pages it reads.
Outcome StagedWrite(const Shared& sh, Client* c, Op op, int tenant,
                    const std::vector<Value>& params, uint64_t req,
                    int32_t root) {
  Outcome out;
  SpanRecorder* sp = c->spans.get();
  LayerSamples& ls = c->layers[static_cast<size_t>(op)];
  const char* sql = kSql[static_cast<int>(op)];
  auto t0 = Clock::now();
  int32_t s = sp->Begin("sql.parse", req, root);
  auto parsed = mtdb::sql::Parse(sql);
  sp->End(s);
  auto t1 = Clock::now();
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  s = sp->Begin("core.dml_map", req, root);
  auto explained = sh.env->layout->ExplainMapping(tenant, *parsed, params);
  sp->End(s);
  auto t2 = Clock::now();
  if (!explained.ok()) {
    out.status = explained.status();
    return out;
  }
  s = sp->Begin("session.execute", req, root);
  auto affected = c->sessions[static_cast<size_t>(tenant)].Execute(sql, params);
  sp->End(s);
  ls.parse.Add(Micros(t0, t1));
  ls.dml_map.Add(Micros(t1, t2));
  if (!affected.ok()) {
    out.status = affected.status();
  } else {
    out.affected = *affected;
  }
  return out;
}

void CheckPoint(const Shared& sh, Client* c, int tenant, int64_t id,
                const Outcome& o, bool wide) {
  const TenantModel& tm = *sh.model->tenants[static_cast<size_t>(tenant)];
  const Account& a = tm.loaded[static_cast<size_t>(id - 1)];
  std::string where = "t" + std::to_string(tenant) + " id " + std::to_string(id);
  if (o.rows.rows.size() != 1) {
    c->Problem(where + ": expected 1 row, got " +
               std::to_string(o.rows.rows.size()));
    return;
  }
  const Row& r = o.rows.rows[0];
  if (r.size() != (wide ? 6u : 3u) || Str(r[0]) != a.name ||
      Str(r[1]) != kStatuses[a.status] ||
      Num(r[2]) != static_cast<double>(a.amount) ||
      (wide && Str(r[4]) != a.hospital)) {
    c->Problem(where + ": wrong base values " + mtdb::RowToString(r));
    return;
  }
  if (!wide) return;
  if (Num(r[3]) != Num(r[5])) {
    // Paired base/extension values disagree: a known race of multi-chunk
    // writes, counted apart from failures.
    c->torn++;
    return;
  }
  if (sh.model->clients == 1) {
    int32_t last = tm.last[static_cast<size_t>(id - 1)].load();
    int32_t expect = last == kNoValue ? a.value : last;
    if (Num(r[3]) != expect) {
      c->Problem(where + ": quantity " + r[3].ToString() + ", expected " +
                 std::to_string(expect));
    }
  }
}

/// `ops_before` is the tenant's new_ops, read before the report ran.
void CheckReport(const Shared& sh, Client* c, int tenant, const Outcome& o,
                 int64_t ops_before) {
  const TenantModel& tm = *sh.model->tenants[static_cast<size_t>(tenant)];
  std::map<std::string, std::pair<double, double>> got;
  for (const Row& r : o.rows.rows) {
    if (r.size() != 3) {
      c->Problem("report: row width " + std::to_string(r.size()));
      return;
    }
    got[Str(r[0])] = {Num(r[1]), Num(r[2])};
  }
  std::string where = "report t" + std::to_string(tenant);
  for (int s = 0; s < kLoadedStatuses; ++s) {
    auto it = got.find(kStatuses[s]);
    double count = it == got.end() ? 0 : it->second.first;
    double sum = it == got.end() ? 0 : it->second.second;
    if (count != static_cast<double>(tm.count[static_cast<size_t>(s)]) ||
        (count > 0 && sum != static_cast<double>(tm.sum[static_cast<size_t>(s)]))) {
      c->Problem(where + " status " + kStatuses[s] + ": count " +
                 std::to_string(count) + " sum " + std::to_string(sum));
    }
    if (it != got.end()) got.erase(it);
  }
  // The "new" group is exact with one client. With more, the report saw
  // the table at one moment and the model is read later: each other
  // client may have one statement whose effect the model lags (at that
  // moment and again now), and every insert or delete acknowledged in
  // between moves the model by one row of amount at most 5000.
  auto it = got.find(kStatuses[kNewStatus]);
  double count = it == got.end() ? 0 : it->second.first;
  double sum = it == got.end() ? 0 : it->second.second;
  if (it != got.end()) got.erase(it);
  double model_count = static_cast<double>(tm.new_count.load());
  double model_sum = static_cast<double>(tm.new_sum.load());
  double slack = 2.0 * (sh.model->clients - 1) +
                 static_cast<double>(tm.new_ops.load() - ops_before);
  if (std::abs(count - model_count) > slack ||
      std::abs(sum - model_sum) > slack * 5000) {
    c->Problem(where + " status new: count " + std::to_string(count) +
               " sum " + std::to_string(sum));
  }
  if (!got.empty()) c->Problem(where + ": unexpected group " + got.begin()->first);
}

/// Executes one logical statement, times it, checks its result against
/// the model and updates the model.
void RunOp(const Shared& sh, Client* c, Op op, Mode mode, double start_s,
           bool record) {
  const WorkloadSpec& spec = *sh.spec;
  Model& m = *sh.model;
  size_t self = static_cast<size_t>(c->id);
  int tenant = static_cast<int>(c->rng.Uniform(0, spec.tenants - 1));
  TenantModel* tm = m.tenants[static_cast<size_t>(tenant)].get();
  int64_t id = c->rng.Uniform(1, static_cast<int64_t>(tm->loaded.size()));
  std::vector<Value> params;
  int32_t value = 0;
  int64_t ops_before = 0;
  NewRow new_row;
  switch (op) {
    case Op::kPointSelect:
    case Op::kWideSelect:
      params = {Value::Int64(id)};
      break;
    case Op::kReport:
      ops_before = tm->new_ops.load();
      break;
    case Op::kUpdate:
      if (!tm->hot_ids.empty()) {
        id = tm->hot_ids[static_cast<size_t>(
            c->rng.Uniform(0, static_cast<int64_t>(tm->hot_ids.size()) - 1))];
      }
      value = m.next_value[self];
      m.next_value[self] += m.clients;
      params = {Value::Int32(value), Value::Int32(value), Value::Int64(id)};
      break;
    case Op::kInsert: {
      new_row = MakeNewRow(&m, &c->rng, c->id, spec.tenants);
      tenant = new_row.tenant;
      tm = m.tenants[static_cast<size_t>(tenant)].get();
      const Account& a = new_row.row;
      params = {Value::Int64(a.id),
                Value::Int64(a.id % 50),
                Value::String(a.name),
                Value::String(kStatuses[a.status]),
                Value::Double(static_cast<double>(a.amount)),
                Value::Int32(a.value),
                Value::String(a.hospital),
                Value::Int32(a.value)};
      break;
    }
    case Op::kDelete:
      new_row = std::move(m.live[self].front());
      m.live[self].pop_front();
      tenant = new_row.tenant;
      tm = m.tenants[static_cast<size_t>(tenant)].get();
      params = {Value::Int64(new_row.row.id)};
      break;
  }

  TenantSession& session = c->sessions[static_cast<size_t>(tenant)];
  bool traced = mode == Mode::kTraced;
  if (traced != c->tracing_on) {
    for (TenantSession& s : c->sessions) s.EnableTracing(traced);
    c->tracing_on = traced;
  }
  uint64_t req = c->next_request++;
  int32_t root = -1;
  if (mode != Mode::kPlain) {
    root = c->spans->Begin(
        mode == Mode::kTraced ? "bench.traced" : "bench.replay", req, -1);
  }
  const char* sql = kSql[static_cast<int>(op)];
  bool select = !IsWrite(op);
  Outcome o;
  auto t0 = Clock::now();
  if (mode == Mode::kReplay) {
    o = select ? StagedSelect(sh, c, op, tenant, params, req, root)
               : StagedWrite(sh, c, op, tenant, params, req, root);
  } else {
    int32_t s = -1;
    if (traced) {
      s = c->spans->Begin(select ? "session.query" : "session.execute", req,
                          root);
    }
    if (select) {
      auto r = session.Query(sql, params);
      if (r.ok()) {
        o.rows = std::move(*r);
      } else {
        o.status = r.status();
      }
    } else {
      auto r = session.Execute(sql, params);
      if (r.ok()) {
        o.affected = *r;
      } else {
        o.status = r.status();
      }
    }
    if (traced) c->spans->End(s);
  }
  auto t1 = Clock::now();
  if (root >= 0) c->spans->End(root);

  if (record) {
    c->attempted++;
    c->ops_in_mode[static_cast<size_t>(mode)]++;
    if (mode == Mode::kPlain) {
      c->samples[static_cast<size_t>(op)].push_back({start_s, Micros(t0, t1)});
    }
    if (mode != Mode::kReplay) {
      c->stmts_before_replay++;
      if (!select) {
        c->writes_before_replay++;
        c->write_us_before_replay += Micros(t0, t1);
      }
    }
    if (traced && session.tracer() != nullptr &&
        session.tracer()->last() != nullptr) {
      mtdb::trace::SpanIo io = session.tracer()->last()->root->TotalIo();
      uint64_t reads = io.pool_hits + io.pool_misses;
      c->traced_reads[static_cast<size_t>(op)] += reads;
      c->traced_wal_bytes[static_cast<size_t>(op)] += io.wal_bytes;
      c->traced_stmts[static_cast<size_t>(op)]++;
      if (select) {
        c->traced_select_reads += reads;
        c->traced_select_rows += o.rows.rows.size();
      }
    }
  }

  if (!o.status.ok()) {
    c->failed++;
    if (c->problems.size() < 5) {
      c->problems.push_back(std::string(OpName(op)) + ": " +
                            o.status.ToString());
    }
    if (op == Op::kDelete) m.live[self].push_front(std::move(new_row));
    return;
  }
  switch (op) {
    case Op::kPointSelect:
    case Op::kWideSelect:
      CheckPoint(sh, c, tenant, id, o, op == Op::kWideSelect);
      break;
    case Op::kReport:
      CheckReport(sh, c, tenant, o, ops_before);
      break;
    case Op::kUpdate:
      if (o.affected != 1) c->Problem("update affected " + std::to_string(o.affected));
      tm->last[static_cast<size_t>(id - 1) * static_cast<size_t>(m.clients) +
               self]
          .store(value);
      break;
    case Op::kInsert:
      if (o.affected != 1) c->Problem("insert affected " + std::to_string(o.affected));
      tm->new_count += 1;
      tm->new_sum += new_row.row.amount;
      tm->new_ops += 1;
      m.live[self].push_back(std::move(new_row));
      break;
    case Op::kDelete:
      if (o.affected != 1) c->Problem("delete affected " + std::to_string(o.affected));
      tm->new_count -= 1;
      tm->new_sum -= new_row.row.amount;
      tm->new_ops += 1;
      break;
  }
}

Mode ModeAt(bool trace, double elapsed, double seconds) {
  if (!trace) return Mode::kPlain;
  int block = static_cast<int>(elapsed / (seconds / kTraceBlocks));
  if (block >= kReplayFrom) return Mode::kReplay;
  return block % 2 == 0 ? Mode::kPlain : Mode::kTraced;
}

/// Runs every client's closed loop for `seconds`.
void RunClients(const Shared& sh, std::vector<std::unique_ptr<Client>>* clients,
                double seconds, bool trace, bool record) {
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& cp : *clients) {
    Client* c = cp.get();
    threads.emplace_back([&sh, c, start, seconds, trace, record] {
      // Clients hop together, each on its own CPU.
      int slot = -1;
      double next_reference = 0;
      while (true) {
        double t = Since(start);
        if (t >= seconds) break;
        if (static_cast<int>(t / kCpuHopSeconds) != slot) {
          slot = static_cast<int>(t / kCpuHopSeconds);
          PinThread(sh.cpus, c->id + slot);
        }
        if (record && t >= next_reference) {
          next_reference = t + kReferenceSeconds;
          c->reference_us.Add(c->reference.Run());
        }
        Op op = PickOp(*sh.spec, c);
        if (op == Op::kDelete && sh.model->live[static_cast<size_t>(c->id)].empty()) {
          op = Op::kInsert;
        }
        RunOp(sh, c, op, record ? ModeAt(trace, t, seconds) : Mode::kPlain, t,
              record);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------
// End-of-run reconciliation

/// Reads every tenant's whole account table and compares it with the
/// model: loaded rows keep their base values and carry the last value a
/// client wrote, rows the run inserted are present exactly while live.
void Reconcile(const Shared& sh, Env* env, Client* checker,
               const std::string& phase) {
  const Model& m = *sh.model;
  for (size_t t = 0; t < m.tenants.size(); ++t) {
    const TenantModel& tm = *m.tenants[t];
    std::map<int64_t, const Account*> expect;
    for (const Account& a : tm.loaded) expect[a.id] = &a;
    for (const std::deque<NewRow>& rows : m.live) {
      for (const NewRow& r : rows) {
        if (static_cast<size_t>(r.tenant) == t) expect[r.row.id] = &r.row;
      }
    }
    TenantSession session = env->layout->OpenSession(static_cast<int>(t));
    auto result = session.Query(kReconcileSql);
    std::string where = phase + " t" + std::to_string(t);
    if (!result.ok()) {
      checker->Problem(where + ": " + result.status().ToString());
      continue;
    }
    if (result->rows.size() != expect.size()) {
      checker->Problem(where + ": " + std::to_string(result->rows.size()) +
                       " rows, expected " + std::to_string(expect.size()));
    }
    for (const Row& r : result->rows) {
      int64_t id = static_cast<int64_t>(Num(r[0]));
      auto it = expect.find(id);
      if (it == expect.end()) {
        checker->Problem(where + ": unexpected id " + std::to_string(id));
        continue;
      }
      const Account& a = *it->second;
      bool base_ok = Str(r[1]) == a.name && Str(r[2]) == kStatuses[a.status] &&
                     Num(r[3]) == static_cast<double>(a.amount) &&
                     Str(r[5]) == a.hospital && Num(r[4]) == Num(r[6]);
      bool value_ok = Num(r[4]) == a.value;
      if (a.status != kNewStatus) {
        // Any client's last acknowledged write may be the final one.
        bool written = false;
        value_ok = false;
        for (int c = 0; c < m.clients; ++c) {
          int32_t v = tm.last[static_cast<size_t>(id - 1) *
                                  static_cast<size_t>(m.clients) +
                              static_cast<size_t>(c)]
                          .load();
          if (v == kNoValue) continue;
          written = true;
          value_ok = value_ok || Num(r[4]) == v;
        }
        if (!written) value_ok = Num(r[4]) == a.value;
      }
      if (!base_ok || !value_ok) {
        checker->Problem(where + " id " + std::to_string(id) + ": " +
                         mtdb::RowToString(r));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Metrics

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Engine and mapping counters the traced run differences.
struct Counters {
  mtdb::BufferPoolStats buffer;
  mtdb::PageStoreStats store;
  mtdb::DurabilityCountersSnapshot durability;
  uint64_t lock_waits = 0;
  uint64_t deadlocks = 0;
  uint64_t lock_wait_us = 0;
  uint64_t physical_statements = 0;
  uint64_t undo_statements = 0;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

Counters ReadCounters(Env* env) {
  mtdb::EngineStats s = env->db->Stats();
  Counters c;
  c.buffer = s.buffer;
  c.store = s.store;
  c.durability = s.durability;
  for (const auto& e : s.metrics.counters) {
    if (StartsWith(e.name, "lock.waits.t")) c.lock_waits += e.value;
    if (StartsWith(e.name, "lock.deadlocks.t")) c.deadlocks += e.value;
  }
  for (const auto& h : s.metrics.histograms) {
    if (StartsWith(h.name, "lock.wait_us.t")) c.lock_wait_us += h.sum_us;
  }
  c.physical_statements = env->layout->stats().physical_statements.value();
  c.undo_statements = env->layout->stats().undo_statements.value();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-op stage metrics of the traced run. `plain_p50` is each op's
/// median latency in the plain blocks: a write's apply time is that
/// minus its parse and Phase (a) mapping stages.
void AddLayerMetrics(const std::vector<std::unique_ptr<Client>>& clients,
                     const std::array<double, kOps>& plain_p50,
                     std::vector<Metric>* out) {
  for (int op = 0; op < kOps; ++op) {
    LayerSamples all;
    for (const auto& c : clients) {
      const LayerSamples& ls = c->layers[static_cast<size_t>(op)];
      all.parse.Merge(ls.parse);
      all.transform.Merge(ls.transform);
      all.plan.Merge(ls.plan);
      all.execute.Merge(ls.execute);
      all.dml_map.Merge(ls.dml_map);
    }
    std::string name = OpName(static_cast<Op>(op));
    double parse = all.parse.Quantile(0.50);
    out->push_back({"trace.stmt_p50_us." + name,
                    plain_p50[static_cast<size_t>(op)], "us"});
    out->push_back({"sql.parse_us." + name, parse, "us"});
    if (!IsWrite(static_cast<Op>(op))) {
      out->push_back({"core.transform_us." + name, all.transform.Quantile(0.50),
                      "us"});
      out->push_back({"engine.plan_us." + name, all.plan.Quantile(0.50), "us"});
      out->push_back({"exec.execute_us." + name, all.execute.Quantile(0.50),
                      "us"});
    } else {
      double map = all.dml_map.Quantile(0.50);
      out->push_back({"core.dml_map_us." + name, map, "us"});
      out->push_back({"engine.write_apply_us." + name,
                      plain_p50[static_cast<size_t>(op)] - parse - map,
                      "us"});
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name, bool smoke) {
  static const std::vector<WorkloadSpec> kFull = MakeWorkloads(false);
  static const std::vector<WorkloadSpec> kSmoke = MakeWorkloads(true);
  for (const WorkloadSpec& w : smoke ? kSmoke : kFull) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool RunWorkload(const RunOptions& options, RunReport* report) {
  const WorkloadSpec& spec = options.spec;
  namespace fs = std::filesystem;
  const std::string dir =
      options.work_dir + "/db-" + spec.name + "-" + std::to_string(options.seed);
  auto fail = [&](const std::string& what, const Status& st) {
    report->problems.push_back(what + ": " + st.ToString());
    return false;
  };
  std::unique_ptr<Model> model = BuildModel(spec, options.seed);
  static const mtdb::mapping::AppSchema app = mtdb::testbed::BuildCrmAppSchema();

  // Set-up (bootstrap, tenants, extension, load) into a fresh database,
  // timed for setup_s. Each set-up runs on the next CPU.
  const std::vector<int> cpus = AllowedCpus();
  Env env;
  mtdb::SampleSet setup_s;
  auto set_up = [&]() {
    env.layout.reset();
    env.db.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    PinThread(cpus, static_cast<int>(setup_s.count()));
    auto t0 = Clock::now();
    auto opened = OpenEnv(spec, &app, dir);
    if (!opened.ok()) return fail("open", opened.status());
    env = std::move(*opened);
    Status st = Load(&env, *model);
    // A bulk load ends with a checkpoint, so the timed window starts
    // with an empty WAL instead of the load's log volume.
    if (st.ok() && spec.durable) st = env.db->Checkpoint();
    if (!st.ok()) return fail("load", st);
    setup_s.Add(Since(t0));
    PinThread(cpus, -1);
    return true;
  };
  // setup_s is the median of the set-ups before the timed window and
  // after it: at least two on each side, and more while a side has taken
  // less than kSetupSideSeconds. On a shared host a process's speed
  // shifts for seconds at a time (back-to-back set-ups all took 0.2 s or
  // all 0.3 s), so set-ups half a minute apart sample it twice. The last
  // set-up before the window is the one the clients run on. A traced run
  // sets up once.
  constexpr double kSetupSideSeconds = 2.5;
  auto set_up_side = [&]() {
    auto t0 = Clock::now();
    for (int i = 0; i < 2 || Since(t0) < kSetupSideSeconds; ++i) {
      if (!set_up()) return false;
    }
    return true;
  };
  if (!(options.trace ? set_up() : set_up_side())) return false;
  {
    mtdb::EngineStats st = env.db->Stats();
    report->problems.push_back("note: data pages " +
                               std::to_string(st.store.allocations) +
                               ", pool frames " +
                               std::to_string(st.buffer_capacity));
  }
  if (options.break_check) model->tenants[0]->loaded[0].amount += 1;

  std::vector<std::unique_ptr<Client>> clients;
  Clock::time_point epoch = Clock::now();
  for (int i = 0; i < spec.clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->rng = mtdb::Rng(options.seed * 1000003ull + static_cast<uint64_t>(i) + 1);
    for (int t = 0; t < spec.tenants; ++t) {
      c->sessions.push_back(env.layout->OpenSession(t));
    }
    if (options.trace) c->spans = std::make_unique<SpanRecorder>(epoch, 1u << 20);
    clients.push_back(std::move(c));
  }
  Shared sh;
  sh.spec = &spec;
  sh.model = model.get();
  sh.env = &env;
  sh.cpus = cpus;

  if (spec.warm_up) {
    for (const auto& c : clients) {
      for (int t = 0; t < spec.tenants; ++t) {
        RunOp(sh, c.get(), Op::kReport, Mode::kPlain, 0, false);
      }
    }
    RunClients(sh, &clients, std::min(1.0, options.seconds / 4), false, false);
  } else {
    env.db->ColdCache();
  }

  // The timed window. A traced run snapshots counters over its plain and
  // traced blocks, before the replay blocks add EXPLAIN MAPPING reads.
  Counters before = ReadCounters(&env);
  Counters at_replay;
  std::thread snapshotter;
  if (options.trace) {
    snapshotter = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options.seconds * kReplayFrom / kTraceBlocks));
      at_replay = ReadCounters(&env);
    });
  }
  auto t_run = Clock::now();
  RunClients(sh, &clients, options.seconds, options.trace, true);
  double window = Since(t_run);
  if (snapshotter.joinable()) snapshotter.join();

  Client checker;
  Reconcile(sh, &env, &checker, "end");
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  if (spec.durable) {
    auto t0 = Clock::now();
    Status st = env.db->Checkpoint();
    checkpoint_ms = Since(t0) * 1000;
    if (!st.ok()) return fail("checkpoint", st);
    for (auto& c : clients) c->sessions.clear();
    env.layout.reset();
    env.db.reset();
    t0 = Clock::now();
    auto reopened = OpenEnv(spec, &app, dir);
    if (!reopened.ok()) return fail("reopen", reopened.status());
    env = std::move(*reopened);
    st = env.layout->Recover();
    recovery_ms = Since(t0) * 1000;
    if (!st.ok()) return fail("recover", st);
    report->problems.push_back("note: run-end checkpoint " +
                               std::to_string(checkpoint_ms) +
                               " ms, restart " + std::to_string(recovery_ms) +
                               " ms");
    Reconcile(sh, &env, &checker, "after restart");
  }
  if (!options.trace) {
    for (auto& c : clients) c->sessions.clear();
    if (!set_up_side()) return false;
  }
  {
    std::string note = "note: set-ups (s)";
    for (double t : setup_s.samples()) note += " " + std::to_string(t);
    report->problems.push_back(note);
  }

  // Totals.
  uint64_t torn = 0;
  for (const auto& c : clients) {
    report->attempted += c->attempted;
    report->failed += c->failed;
    torn += c->torn;
    checker.mismatches += c->mismatches;
    for (const std::string& p : c->problems) checker.problems.push_back(p);
  }
  report->correct = checker.mismatches == 0;
  report->problems.insert(report->problems.end(), checker.problems.begin(),
                          checker.problems.end());

  // Plain-mode latencies per op (the whole window of an untraced run).
  std::array<mtdb::SampleSet, kOps> lat;
  std::array<double, kOps> p50{};
  for (size_t op = 0; op < kOps; ++op) {
    for (const auto& c : clients) {
      for (const Sample& s : c->samples[op]) lat[op].Add(s.us);
    }
    p50[op] = lat[op].Quantile(0.50);
  }

  // The host's speed over the timed window: the reference loop's median.
  mtdb::SampleSet reference_us;
  for (const auto& c : clients) reference_us.Merge(c->reference_us);
  const double reference = reference_us.Quantile(0.50);

  std::vector<Metric>& out = report->metrics;
  if (!options.trace) {
    // End-to-end times are calibrated: scaled by how much slower or
    // faster the reference loop ran than its nominal time, so that they
    // read as on the reference machine at a steady speed.
    const double scale =
        reference > 0 ? SpeedReference::kNominalUs / reference : 1;
    report->problems.push_back(
        "note: reference loop " + std::to_string(reference) + " us, scale " +
        std::to_string(scale) + "; measured setup " +
        std::to_string(setup_s.Quantile(0.50)) + " s, p50 (us)");
    for (int op = 0; op < kOps; ++op) {
      report->problems.back() += " " + std::string(OpName(static_cast<Op>(op))) +
                                 " " + std::to_string(p50[static_cast<size_t>(op)]);
    }
    uint64_t done = 0;
    for (const auto& c : clients) done += c->attempted - c->failed;
    out.push_back({"setup_s", setup_s.Quantile(0.50) * scale, "s"});
    out.push_back({"throughput_ops_s",
                   static_cast<double>(done) / window / scale, "1/s"});
    for (int op = 0; op < kOps; ++op) {
      std::string name = OpName(static_cast<Op>(op));
      const mtdb::SampleSet& v = lat[static_cast<size_t>(op)];
      out.push_back({name + "_p50_us", p50[static_cast<size_t>(op)] * scale,
                     "us"});
      // p90, not p99: on a shared host, stalls from neighbours touch 1%
      // of statements in a quiet phase and up to 5% in a busy one, so
      // higher percentiles track the host, not the program.
      out.push_back({name + "_p90_us", v.Quantile(0.90) * scale, "us"});
      if (v.count() < 1000) {
        report->problems.push_back("note: only " + std::to_string(v.count()) +
                                   " " + name + " samples (want 1000)");
      }
    }
    out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    AddLayerMetrics(clients, p50, &out);
    out.push_back({"host.reference_us", reference, "us"});
    // Per-statement I/O from the engine's tracer (traced blocks).
    std::array<uint64_t, kOps> reads{}, wal{}, stmts{};
    uint64_t select_reads = 0, select_rows = 0, plain_ops = 0, traced_ops = 0;
    uint64_t writes = 0, counted = 0, replay_plan_ns = 0, traced_stmts = 0;
    double write_us = 0;
    for (const auto& c : clients) {
      for (size_t op = 0; op < kOps; ++op) {
        reads[op] += c->traced_reads[op];
        wal[op] += c->traced_wal_bytes[op];
        stmts[op] += c->traced_stmts[op];
      }
      select_reads += c->traced_select_reads;
      select_rows += c->traced_select_rows;
      plain_ops += c->ops_in_mode[0];
      traced_ops += c->ops_in_mode[1];
      traced_stmts += c->ops_in_mode[1] + c->ops_in_mode[2];
      writes += c->writes_before_replay;
      write_us += c->write_us_before_replay;
      counted += c->stmts_before_replay;
      replay_plan_ns += c->replay_plan_ns;
    }
    for (int op = 0; op < kOps; ++op) {
      size_t i = static_cast<size_t>(op);
      std::string name = OpName(static_cast<Op>(op));
      double n_op = static_cast<double>(stmts[i]);
      out.push_back({"storage.page_reads." + name,
                     Ratio(static_cast<double>(reads[i]), n_op), "pages"});
      if (IsWrite(static_cast<Op>(op))) {
        out.push_back({"storage.wal_bytes." + name,
                       Ratio(static_cast<double>(wal[i]), n_op), "bytes"});
      }
    }
    const Counters& a = before;
    const Counters& b = at_replay;
    auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
    double n = static_cast<double>(counted);
    double w = static_cast<double>(writes);
    double logical = d(a.buffer.logical_reads(), b.buffer.logical_reads());
    out.push_back({"index.page_reads_per_stmt",
                   Ratio(d(a.buffer.logical_reads_index,
                           b.buffer.logical_reads_index), n), "pages"});
    out.push_back({"storage.pages_per_row_returned",
                   Ratio(static_cast<double>(select_reads),
                         static_cast<double>(select_rows)), "pages/row"});
    out.push_back({"storage.pool_hit_ratio",
                   logical > 0 ? 1 - d(a.buffer.misses(), b.buffer.misses()) / logical : 1,
                   "ratio"});
    out.push_back({"storage.misses_per_stmt",
                   Ratio(d(a.buffer.misses(), b.buffer.misses()), n), "pages"});
    out.push_back({"storage.evictions_per_stmt",
                   Ratio(d(a.buffer.evictions, b.buffer.evictions), n), "pages"});
    out.push_back({"storage.physical_reads_per_stmt",
                   Ratio(d(a.store.physical_reads, b.store.physical_reads), n),
                   "pages"});
    out.push_back({"storage.wal_bytes_per_write",
                   Ratio(d(a.durability.wal_bytes, b.durability.wal_bytes), w),
                   "bytes"});
    out.push_back({"storage.wal_appends_per_write",
                   Ratio(d(a.durability.wal_appends, b.durability.wal_appends), w),
                   "count"});
    out.push_back({"storage.group_commits_per_write",
                   Ratio(d(a.durability.group_commits, b.durability.group_commits), w),
                   "count"});
    out.push_back({"storage.txn_brackets_per_write",
                   Ratio(d(a.durability.txn_begins, b.durability.txn_begins), w),
                   "count"});
    out.push_back({"storage.checkpoints",
                   d(a.durability.checkpoints, b.durability.checkpoints), "count"});
    // Durability times as shares, so in-memory workloads read a measured
    // 0 rather than a constant time.
    out.push_back({"storage.checkpoint_pct",
                   checkpoint_ms / (window * 1000) * 100, "%"});
    out.push_back({"storage.recovery_pct",
                   recovery_ms / (setup_s.Quantile(0.50) * 1000) * 100, "%"});
    out.push_back({"core.phys_stmts_per_write",
                   Ratio(d(a.physical_statements, b.physical_statements), w),
                   "count"});
    out.push_back({"core.undo_stmts", d(a.undo_statements, b.undo_statements),
                   "count"});
    out.push_back({"core.torn_reads", static_cast<double>(torn), "count"});
    out.push_back({"engine.lock_waits_per_write",
                   Ratio(d(a.lock_waits, b.lock_waits), w), "count"});
    out.push_back({"engine.lock_wait_pct",
                   Ratio(d(a.lock_wait_us, b.lock_wait_us), write_us) * 100, "%"});
    out.push_back({"engine.deadlocks", d(a.deadlocks, b.deadlocks), "count"});
    mtdb::EngineStats stats = env.db->Stats();
    out.push_back({"catalog.metadata_bytes",
                   static_cast<double>(stats.metadata_bytes), "bytes"});
    out.push_back({"catalog.tables", static_cast<double>(stats.tables), "count"});

    // Tracing overhead: plain vs traced blocks, four of each.
    double block_s = options.seconds / kTraceBlocks;
    double plain_rate = static_cast<double>(plain_ops) / (4 * block_s);
    double traced_rate = static_cast<double>(traced_ops) / (4 * block_s);
    out.push_back({"trace.overhead_pct",
                   Ratio(plain_rate - traced_rate, plain_rate) * 100, "%"});

    // Self time per module over the benchmark's spans. QueryAst plans
    // again before executing; the stand-alone plan stage stands in for
    // that part, so it is moved from exec to engine here.
    std::vector<const SpanRecorder*> recorders;
    for (const auto& c : clients) recorders.push_back(c->spans.get());
    std::map<std::string, uint64_t> self = SelfTimeByModule(recorders);
    self["exec"] -= std::min(self["exec"], replay_plan_ns);
    for (const char* module : {"bench", "session", "sql", "core", "engine", "exec"}) {
      out.push_back({std::string("trace.self_us.") + module,
                     Ratio(static_cast<double>(self[module]) / 1000,
                           static_cast<double>(traced_stmts)),
                     "us"});
    }
    std::string path = options.work_dir + "/spans-" + spec.name + "-" +
                       std::to_string(options.seed) + ".tsv";
    if (!WriteSpans(path, recorders)) {
      report->problems.push_back("note: could not write " + path);
    }

    // Drift within the run: plain-block p50 per op, first vs second half.
    double half = options.seconds * kReplayFrom / kTraceBlocks / 2;
    for (int op = 0; op < kOps; ++op) {
      mtdb::SampleSet first, second;
      for (const auto& c : clients) {
        for (const Sample& s : c->samples[static_cast<size_t>(op)]) {
          (s.start_s < half ? first : second).Add(s.us);
        }
      }
      std::string name = OpName(static_cast<Op>(op));
      out.push_back({"run." + name + "_p50_first_half_us", first.Quantile(0.50),
                     "us"});
      out.push_back({"run." + name + "_p50_second_half_us",
                     second.Quantile(0.50), "us"});
    }
  }

  clients.clear();
  env.layout.reset();
  env.db.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return true;
}

}  // namespace perfbench
