#include "testbed/workload.h"

#include <algorithm>
#include <chrono>

namespace mtdb {
namespace testbed {

const char* ActionClassName(ActionClass c) {
  switch (c) {
    case ActionClass::kSelectLight:
      return "Select Light";
    case ActionClass::kSelectHeavy:
      return "Select Heavy";
    case ActionClass::kInsertLight:
      return "Insert Light";
    case ActionClass::kInsertHeavy:
      return "Insert Heavy";
    case ActionClass::kUpdateLight:
      return "Update Light";
    case ActionClass::kUpdateHeavy:
      return "Update Heavy";
    case ActionClass::kAdministrative:
      return "Administrative";
  }
  return "?";
}

double ActionClassWeight(ActionClass c) {
  // Figure 6 distribution.
  switch (c) {
    case ActionClass::kSelectLight:
      return 50.0;
    case ActionClass::kSelectHeavy:
      return 15.0;
    case ActionClass::kInsertLight:
      return 9.59;
    case ActionClass::kInsertHeavy:
      return 0.3;
    case ActionClass::kUpdateLight:
      return 17.6;
    case ActionClass::kUpdateHeavy:
      return 7.5;
    case ActionClass::kAdministrative:
      return 0.01;
  }
  return 0.0;
}

std::vector<ActionCard> Controller::Deal(size_t size) {
  static const ActionClass kClasses[] = {
      ActionClass::kSelectLight,  ActionClass::kSelectHeavy,
      ActionClass::kInsertLight,  ActionClass::kInsertHeavy,
      ActionClass::kUpdateLight,  ActionClass::kUpdateHeavy,
      ActionClass::kAdministrative,
  };
  // Build the deck with the exact class proportions, then shuffle.
  std::vector<ActionCard> deck;
  deck.reserve(size);
  double total = 0;
  for (ActionClass c : kClasses) total += ActionClassWeight(c);
  for (ActionClass c : kClasses) {
    size_t n = static_cast<size_t>(ActionClassWeight(c) / total *
                                   static_cast<double>(size));
    for (size_t i = 0; i < n; ++i) {
      deck.push_back({c, static_cast<TenantId>(rng_.Uniform(0, tenants_ - 1))});
    }
  }
  while (deck.size() < size) {
    deck.push_back({ActionClass::kSelectLight,
                    static_cast<TenantId>(rng_.Uniform(0, tenants_ - 1))});
  }
  // Fisher-Yates shuffle with the deterministic Rng.
  for (size_t i = deck.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap(deck[i - 1], deck[j]);
  }
  return deck;
}

void ResultDatabase::Record(ActionClass action, double millis) {
  samples_[action].Add(millis);
}

void ResultDatabase::Merge(const ResultDatabase& other) {
  for (const auto& [action, set] : other.samples_) {
    samples_[action].Merge(set);
  }
}

uint64_t ResultDatabase::Count() const { return TotalActions(); }

const SampleSet& ResultDatabase::Samples(ActionClass action) const {
  static const SampleSet kEmpty;
  auto it = samples_.find(action);
  return it == samples_.end() ? kEmpty : it->second;
}

uint64_t ResultDatabase::TotalActions() const {
  uint64_t n = 0;
  for (const auto& [_, s] : samples_) n += s.count();
  return n;
}

Worker::Worker(Database* db, int instances, int64_t rows_per_tenant,
               uint64_t seed)
    : session_(db->OpenSession()),
      instances_(instances),
      rows_(rows_per_tenant),
      gen_(seed) {}

Status Worker::RunCard(const ActionCard& card, ResultDatabase* results) {
  auto start = std::chrono::steady_clock::now();
  Status st;
  switch (card.action) {
    case ActionClass::kSelectLight:
      st = SelectLight(card.tenant);
      break;
    case ActionClass::kSelectHeavy:
      st = SelectHeavy(card.tenant);
      break;
    case ActionClass::kInsertLight:
      st = InsertLight(card.tenant);
      break;
    case ActionClass::kInsertHeavy:
      st = InsertHeavy(card.tenant);
      break;
    case ActionClass::kUpdateLight:
      st = UpdateLight(card.tenant);
      break;
    case ActionClass::kUpdateHeavy:
      st = UpdateHeavy(card.tenant);
      break;
    case ActionClass::kAdministrative:
      st = Administrative(card.tenant);
      break;
  }
  auto end = std::chrono::steady_clock::now();
  if (st.ok()) {
    results->Record(card.action,
                    std::chrono::duration<double, std::milli>(end - start)
                        .count());
  }
  return st;
}

namespace {

const char* kEntityTables[] = {"account", "opportunity", "contact", "lead",
                               "asset"};

}  // namespace

Status Worker::SelectLight(TenantId tenant) {
  // Entity detail page: all attributes of a single entity by id.
  const char* table = kEntityTables[gen_.rng().Uniform(0, 4)];
  std::string name = CrmTableName(table, InstanceOf(tenant));
  int64_t id = gen_.rng().Uniform(0, rows_ - 1);
  MTDB_ASSIGN_OR_RETURN(
      QueryResult r,
      session_.Query("SELECT * FROM " + name + " WHERE tenant = ? AND id = ?",
                 {Value::Int32(tenant), Value::Int64(id)}));
  (void)r;
  return Status::OK();
}

Status Worker::SelectHeavy(TenantId tenant) {
  int inst = InstanceOf(tenant);
  std::string account = CrmTableName("account", inst);
  std::string opportunity = CrmTableName("opportunity", inst);
  std::string crmcase = CrmTableName("crmcase", inst);
  std::string contact = CrmTableName("contact", inst);
  std::vector<Value> t1{Value::Int32(tenant)};
  std::vector<Value> t2{Value::Int32(tenant), Value::Int32(tenant)};
  // Five fixed business-activity-monitoring reports (§4.2).
  switch (gen_.rng().Uniform(0, 4)) {
    case 0:
      return session_.Query("SELECT status, COUNT(*), SUM(amount) FROM " +
                            opportunity +
                            " WHERE tenant = ? GROUP BY status",
                        t1)
          .status();
    case 1:
      return session_.Query("SELECT region, AVG(score) FROM " + account +
                            " WHERE tenant = ? GROUP BY region"
                            " ORDER BY region",
                        t1)
          .status();
    case 2:
      // Parent-child rollup: opportunity totals per account.
      return session_.Query("SELECT a.id, COUNT(*), SUM(o.amount) FROM " + account +
                            " a, " + opportunity +
                            " o WHERE a.tenant = ? AND o.tenant = ?"
                            " AND o.account_id = a.id GROUP BY a.id"
                            " ORDER BY SUM(o.amount) DESC LIMIT 10",
                        t2)
          .status();
    case 3:
      return session_.Query("SELECT status, COUNT(*) FROM " + crmcase +
                            " WHERE tenant = ? GROUP BY status",
                        t1)
          .status();
    default:
      return session_.Query("SELECT c.id, COUNT(*) FROM " + contact + " c, " +
                            crmcase +
                            " k WHERE c.tenant = ? AND k.tenant = ?"
                            " AND k.contact_id = c.id GROUP BY c.id LIMIT 20",
                        t2)
          .status();
  }
}

Status Worker::InsertLight(TenantId tenant) {
  const CrmTable& t = CrmTables()[gen_.rng().Uniform(0, 9)];
  int64_t id = 1000000 + gen_.rng().Uniform(0, 100000000);
  Row row = gen_.CrmRow(t, tenant, id, rows_);
  return session_.InsertRow(CrmTableName(t.name, InstanceOf(tenant)), row)
      .status();
}

Status Worker::InsertHeavy(TenantId tenant) {
  // Web-Service bulk import: several hundred entities in a batch.
  const CrmTable& t = CrmTables()[gen_.rng().Uniform(0, 9)];
  std::string name = CrmTableName(t.name, InstanceOf(tenant));
  for (int i = 0; i < 200; ++i) {
    int64_t id = 2000000 + gen_.rng().Uniform(0, 100000000);
    Row row = gen_.CrmRow(t, tenant, id, rows_);
    MTDB_RETURN_IF_ERROR(session_.InsertRow(name, row).status());
  }
  return Status::OK();
}

Status Worker::UpdateLight(TenantId tenant) {
  // Small set selected via the indexed status column.
  std::string name = CrmTableName("account", InstanceOf(tenant));
  const char* statuses[] = {"new", "open", "working", "closed", "won", "lost"};
  std::string status = statuses[gen_.rng().Uniform(0, 5)];
  return session_
      .Execute("UPDATE " + name +
                   " SET owner = ? WHERE tenant = ? AND status = ?",
               {Value::String(gen_.rng().Word(4, 12)), Value::Int32(tenant),
                Value::String(status)})
      .status();
}

Status Worker::UpdateHeavy(TenantId tenant) {
  // Several hundred entities selected by the primary key index. Parsed
  // once and executed many times through the prepared-statement path.
  std::string name = CrmTableName("contact", InstanceOf(tenant));
  MTDB_ASSIGN_OR_RETURN(
      PreparedStatement update,
      session_.Prepare("UPDATE " + name +
                       " SET modified = ? WHERE tenant = ? AND id = ?"));
  for (int i = 0; i < 100; ++i) {
    int64_t id = gen_.rng().Uniform(0, rows_ - 1);
    MTDB_RETURN_IF_ERROR(
        session_
            .Execute(update, {Value::Date(14000), Value::Int32(tenant),
                              Value::Int64(id)})
            .status());
  }
  return Status::OK();
}

Status Worker::Administrative(TenantId) {
  // Creates a new instance of the 10-table CRM schema via DDL while the
  // system is on-line (§4.2 Administrative Tasks).
  int instance = next_admin_instance_++;
  return CreateCrmInstance(session_.database(), instance);
}

}  // namespace testbed
}  // namespace mtdb
