#include "chunk_bench_common.h"

#include <chrono>

#include "common/rng.h"

namespace mtdb {
namespace bench {

std::string DataColumnName(int i) {
  switch (i % 3) {
    case 0:
      return "ci" + std::to_string(i / 3 + 1);
    case 1:
      return "cd" + std::to_string(i / 3 + 1);
    default:
      return "cs" + std::to_string(i / 3 + 1);
  }
}

namespace {

TypeId DataColumnType(int i) {
  switch (i % 3) {
    case 0:
      return TypeId::kInt32;
    case 1:
      return TypeId::kDate;
    default:
      return TypeId::kString;
  }
}

std::vector<mapping::LogicalColumn> DataColumns() {
  std::vector<mapping::LogicalColumn> cols;
  for (int i = 0; i < kDataColumns; ++i) {
    cols.push_back({DataColumnName(i), DataColumnType(i), false});
  }
  return cols;
}

}  // namespace

mapping::AppSchema ParentChildSchema() {
  mapping::AppSchema app;
  {
    mapping::LogicalTable parent;
    parent.name = "parent";
    parent.columns.push_back({"id", TypeId::kInt64, true});
    for (auto& c : DataColumns()) parent.columns.push_back(c);
    Status st = app.AddTable(std::move(parent));
    (void)st;
  }
  {
    mapping::LogicalTable child;
    child.name = "child";
    child.columns.push_back({"id", TypeId::kInt64, true});
    child.columns.push_back({"parent", TypeId::kInt64, true});
    for (auto& c : DataColumns()) child.columns.push_back(c);
    Status st = app.AddTable(std::move(child));
    (void)st;
  }
  return app;
}

Result<std::unique_ptr<Deployment>> MakeDeployment(
    const ChunkBenchConfig& config, int width, bool vertical) {
  auto d = std::make_unique<Deployment>();
  d->width = width;
  d->label = width == 0 ? "conventional"
                        : (vertical ? "vertical" : "chunk") +
                              std::to_string(width);
  DatabaseOptions options;
  options.engine.memory_budget_bytes = 256ull * 1024 * 1024;
  d->db = std::make_unique<Database>(options);
  d->app = std::make_unique<mapping::AppSchema>(ParentChildSchema());
  if (width == 0) {
    d->layout =
        std::make_unique<mapping::BasicLayout>(d->db.get(), d->app.get());
  } else {
    mapping::ChunkLayoutOptions chunk_options;
    chunk_options.shape = mapping::ChunkShape::Uniform(width);
    chunk_options.fold = !vertical;
    d->layout = std::make_unique<mapping::ChunkTableLayout>(
        d->db.get(), d->app.get(), chunk_options);
  }
  MTDB_RETURN_IF_ERROR(d->layout->Bootstrap());
  MTDB_RETURN_IF_ERROR(d->layout->CreateTenant(0));

  Rng rng(config.seed);
  auto data_values = [&](Row* row) {
    for (int i = 0; i < kDataColumns; ++i) {
      switch (i % 3) {
        case 0:
          row->push_back(Value::Int32(static_cast<int32_t>(rng.Uniform(0, 1 << 20))));
          break;
        case 1:
          row->push_back(Value::Date(static_cast<int32_t>(rng.Uniform(10957, 14000))));
          break;
        default:
          row->push_back(Value::String(rng.Word(8, 24)));
          break;
      }
    }
  };
  for (int p = 0; p < config.parents; ++p) {
    Row row;
    row.push_back(Value::Int64(p));
    data_values(&row);
    MTDB_ASSIGN_OR_RETURN(int64_t n, d->layout->InsertRow(0, "parent", row));
    (void)n;
    for (int c = 0; c < config.children_per_parent; ++c) {
      Row child;
      child.push_back(Value::Int64(p * 1000 + c));
      child.push_back(Value::Int64(p));
      data_values(&child);
      MTDB_ASSIGN_OR_RETURN(int64_t m, d->layout->InsertRow(0, "child", child));
      (void)m;
    }
  }
  return d;
}

std::string BuildQ2(int scale) {
  // `scale` total data columns, split evenly across parent and child.
  int per_side = scale / 2;
  std::string sql = "SELECT p.id";
  for (int i = 0; i < per_side; ++i) {
    sql += ", p." + DataColumnName(i);
  }
  for (int i = 0; i < scale - per_side; ++i) {
    sql += ", c." + DataColumnName(i);
  }
  sql += " FROM parent p, child c WHERE p.id = c.parent AND p.id = ?";
  return sql;
}

std::string BuildGroupingQuery(int scale) {
  // Group children by one string column, aggregating `scale` columns.
  std::string sql = "SELECT c.cs1, COUNT(*)";
  for (int i = 0; i < scale && i < 30; ++i) {
    sql += ", MAX(c." + DataColumnName(i * 3) + ")";  // int columns
  }
  sql += " FROM child c GROUP BY c.cs1";
  return sql;
}

Result<RunResult> RunQuery(Deployment* d, const std::string& sql,
                           const std::vector<Value>& params, int reps,
                           bool cold) {
  RunResult out;
  // One warm-up execution (also validates the query).
  if (!cold) {
    MTDB_ASSIGN_OR_RETURN(QueryResult r, d->layout->Query(0, sql, params));
    (void)r;
  }
  uint64_t logical0 = d->db->Stats().buffer.logical_reads();
  uint64_t physical0 = d->db->Stats().store.physical_reads;
  double total_ms = 0.0;
  for (int i = 0; i < reps; ++i) {
    if (cold) d->db->ColdCache();
    auto start = std::chrono::steady_clock::now();
    MTDB_ASSIGN_OR_RETURN(QueryResult r, d->layout->Query(0, sql, params));
    auto end = std::chrono::steady_clock::now();
    (void)r;
    total_ms += std::chrono::duration<double, std::milli>(end - start).count();
  }
  out.mean_ms = total_ms / reps;
  out.logical_reads =
      static_cast<double>(d->db->Stats().buffer.logical_reads() - logical0) /
      reps;
  out.physical_reads =
      static_cast<double>(d->db->Stats().store.physical_reads - physical0) /
      reps;
  return out;
}

}  // namespace bench
}  // namespace mtdb
