// A second star schema — web clickstream — proving the machinery is not
// retail-specific: events(userID, pageID, ts, dwell_ms) with user and
// page dimensions and their hierarchies (user -> country -> continent,
// page -> section).
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "oracle.h"
#include "warehouse/warehouse.h"

namespace sdelta::warehouse {
namespace {

using core::ViewDef;
using rel::Expression;
using rel::Value;

rel::Catalog ClickstreamCatalog() {
  rel::Catalog c;
  std::mt19937_64 rng(99);

  rel::Schema users_s;
  users_s.AddColumn("userID", rel::ValueType::kInt64);
  users_s.AddColumn("country", rel::ValueType::kString);
  users_s.AddColumn("continent", rel::ValueType::kString);
  rel::Table users(users_s, "users");
  for (int64_t u = 1; u <= 50; ++u) {
    const int64_t country = u % 10;
    users.Insert({Value::Int64(u),
                  Value::String("country" + std::to_string(country)),
                  Value::String("continent" + std::to_string(country % 3))});
  }
  c.AddTable(std::move(users));

  rel::Schema pages_s;
  pages_s.AddColumn("pageID", rel::ValueType::kInt64);
  pages_s.AddColumn("section", rel::ValueType::kString);
  rel::Table pages(pages_s, "pages");
  for (int64_t p = 1; p <= 40; ++p) {
    pages.Insert({Value::Int64(p),
                  Value::String("section" + std::to_string(p % 8))});
  }
  c.AddTable(std::move(pages));

  rel::Schema events_s;
  events_s.AddColumn("userID", rel::ValueType::kInt64);
  events_s.AddColumn("pageID", rel::ValueType::kInt64);
  events_s.AddColumn("ts", rel::ValueType::kInt64);
  events_s.AddColumn("dwell_ms", rel::ValueType::kInt64);
  rel::Table events(events_s, "events");
  std::uniform_int_distribution<int64_t> user_d(1, 50);
  std::uniform_int_distribution<int64_t> page_d(1, 40);
  std::uniform_int_distribution<int64_t> ts_d(1, 1000);
  std::uniform_int_distribution<int64_t> dwell_d(10, 60000);
  for (int i = 0; i < 2000; ++i) {
    events.Insert({Value::Int64(user_d(rng)), Value::Int64(page_d(rng)),
                   Value::Int64(ts_d(rng)), Value::Int64(dwell_d(rng))});
  }
  events.EnableRowIndex();
  c.AddTable(std::move(events));

  c.DeclareForeignKey("events", "userID", "users", "userID");
  c.DeclareForeignKey("events", "pageID", "pages", "pageID");
  c.DeclareFunctionalDependency("users", "userID", "country");
  c.DeclareFunctionalDependency("users", "country", "continent");
  c.DeclareFunctionalDependency("pages", "pageID", "section");
  return c;
}

std::vector<ViewDef> ClickstreamViews() {
  std::vector<ViewDef> views;
  ViewDef by_user_page;
  by_user_page.name = "by_user_page";
  by_user_page.fact_table = "events";
  by_user_page.group_by = {"userID", "pageID"};
  by_user_page.aggregates = {
      rel::CountStar("hits"),
      rel::Sum(Expression::Column("dwell_ms"), "total_dwell"),
      rel::Max(Expression::Column("ts"), "last_seen")};
  views.push_back(by_user_page);

  ViewDef by_country_section;
  by_country_section.name = "by_country_section";
  by_country_section.fact_table = "events";
  by_country_section.joins = {
      core::DimensionJoin{"users", "userID", "userID"},
      core::DimensionJoin{"pages", "pageID", "pageID"}};
  by_country_section.group_by = {"country", "section"};
  by_country_section.aggregates = {
      rel::CountStar("hits"),
      rel::Avg(Expression::Column("dwell_ms"), "avg_dwell")};
  views.push_back(by_country_section);

  ViewDef by_continent;
  by_continent.name = "by_continent";
  by_continent.fact_table = "events";
  by_continent.joins = {core::DimensionJoin{"users", "userID", "userID"}};
  by_continent.group_by = {"continent"};
  by_continent.aggregates = {rel::CountStar("hits")};
  views.push_back(by_continent);
  return views;
}

core::ChangeSet RandomEventChanges(const rel::Catalog& c, uint64_t seed) {
  const rel::Table& events = c.GetTable("events");
  std::mt19937_64 rng(seed);
  core::ChangeSet changes;
  changes.fact_table = "events";
  changes.fact = core::DeltaSet(events.schema());
  std::uniform_int_distribution<size_t> pos_d(0, events.NumRows() - 1);
  std::uniform_int_distribution<int64_t> user_d(1, 50);
  std::uniform_int_distribution<int64_t> page_d(1, 40);
  std::uniform_int_distribution<int64_t> ts_d(1, 2000);
  std::uniform_int_distribution<int64_t> dwell_d(10, 60000);
  std::unordered_set<size_t> picked;
  while (picked.size() < 60) picked.insert(pos_d(rng));
  for (size_t p : picked) changes.fact.deletions.Insert(events.RowAt(p));
  for (int i = 0; i < 80; ++i) {
    changes.fact.insertions.Insert(
        {Value::Int64(user_d(rng)), Value::Int64(page_d(rng)),
         Value::Int64(ts_d(rng)), Value::Int64(dwell_d(rng))});
  }
  return changes;
}

TEST(ClickstreamTest, LatticeShape) {
  rel::Catalog c = ClickstreamCatalog();
  Warehouse wh(ClickstreamCatalog());
  wh.DefineSummaryTables(ClickstreamViews());
  // by_country_section and by_continent both derive from by_user_page;
  // by_continent also derives from by_country_section once the friendly
  // extension adds continent (country -> continent).
  const auto& l = wh.vlattice();
  ASSERT_EQ(l.Tops().size(), 1u);
  EXPECT_EQ(l.views[l.Tops()[0]].name(), "by_user_page");
  EXPECT_GE(l.edges.size(), 3u);
}

TEST(ClickstreamTest, MaintenanceMatchesOracleOverBatches) {
  Warehouse wh(ClickstreamCatalog());
  wh.DefineSummaryTables(ClickstreamViews());
  for (uint64_t b = 0; b < 4; ++b) {
    wh.RunBatch(RandomEventChanges(wh.catalog(), 100 + b));
  }
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    sdelta::testing::ExpectBagEq(
        core::EvaluateView(wh.catalog(), av.physical),
        wh.summary(av.name()).ToTable());
  }
}

TEST(ClickstreamTest, MaxTimestampRecomputesOnDeletion) {
  // Deleting a user/page pair's latest event must recompute last_seen.
  rel::Catalog c = ClickstreamCatalog();
  core::AugmentedView av =
      core::AugmentForSelfMaintenance(c, ClickstreamViews()[0]);
  core::SummaryTable st(av, c);
  st.MaterializeFrom(c);

  // Find any group and its max-ts row.
  const rel::Row first = st.RowAt(0);
  const int64_t user = first[0].as_int64();
  const int64_t page = first[1].as_int64();
  const int64_t last_seen = first[st.schema().Resolve("last_seen")]
                                .as_int64();
  // Locate a matching base row to delete.
  const rel::Table& events = c.GetTable("events");
  rel::Row victim;
  for (const rel::Row& r : events.MaterializeRows()) {
    if (r[0].as_int64() == user && r[1].as_int64() == page &&
        r[2].as_int64() == last_seen) {
      victim = r;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());

  core::ChangeSet changes;
  changes.fact_table = "events";
  changes.fact = core::DeltaSet(events.schema());
  changes.fact.deletions.Insert(victim);
  rel::Table sd = core::ComputeSummaryDelta(c, av, changes);
  core::ApplyChangeSet(c, changes);
  core::RefreshStats stats = core::Refresh(c, st, sd);
  // Either the group emptied (deleted) or its MAX was recomputed.
  EXPECT_TRUE(stats.deleted == 1 || stats.recomputed_groups == 1);
  sdelta::testing::ExpectBagEq(core::EvaluateView(c, av.physical),
                               st.ToTable());
}

}  // namespace
}  // namespace sdelta::warehouse
