#include "src/workload/tpch.h"

#include <algorithm>
#include <memory>

#include "src/common/rng.h"

namespace mrtheta {

namespace {

constexpr int64_t kDateMin = 0;      // 1992-01-01
constexpr int64_t kDateMax = 2405;   // leaves room for ship/receipt lags

std::shared_ptr<Relation> NewTable(const char* name,
                                   std::vector<ColumnDef> cols) {
  return std::make_shared<Relation>(name, Schema(std::move(cols)));
}

}  // namespace

TpchData GenerateTpch(const TpchOptions& options) {
  Rng rng(options.seed);
  TpchData db;
  const double sf = options.scale_factor;
  const int64_t li_phys = options.physical_lineitem_rows;
  const int64_t ord_phys = std::max<int64_t>(4, li_phys / 4);
  const int64_t cust_phys = std::max<int64_t>(4, ord_phys / 10);
  const int64_t supp_phys = std::max<int64_t>(4, li_phys / 600);
  const int64_t part_phys = std::max<int64_t>(4, li_phys / 30);
  const int64_t ps_phys = part_phys * 4;

  // region
  {
    auto r = NewTable("region", {{"r_regionkey", ValueType::kInt64}});
    for (int64_t k = 0; k < 5; ++k) r->AppendIntRow({k});
    db.region = r;
  }

  // nation
  {
    auto r = NewTable("nation", {{"n_nationkey", ValueType::kInt64},
                                 {"n_regionkey", ValueType::kInt64}});
    for (int64_t k = 0; k < 25; ++k) r->AppendIntRow({k, k % 5});
    db.nation = r;
  }

  // supplier
  {
    auto r = NewTable("supplier", {{"s_suppkey", ValueType::kInt64},
                                   {"s_nationkey", ValueType::kInt64},
                                   {"s_acctbal", ValueType::kInt64}});
    for (int64_t k = 0; k < supp_phys; ++k) {
      r->AppendIntRow({k, rng.UniformInt(0, 24),
                       rng.UniformInt(-99999, 999999)});
    }
    r->set_logical_rows(static_cast<int64_t>(10000 * sf));
    db.supplier = r;
  }

  // customer
  {
    auto r = NewTable("customer", {{"c_custkey", ValueType::kInt64},
                                   {"c_nationkey", ValueType::kInt64},
                                   {"c_acctbal", ValueType::kInt64}});
    for (int64_t k = 0; k < cust_phys; ++k) {
      r->AppendIntRow({k, rng.UniformInt(0, 24),
                       rng.UniformInt(-99999, 999999)});
    }
    r->set_logical_rows(static_cast<int64_t>(150000 * sf));
    db.customer = r;
  }

  // part
  {
    auto r = NewTable("part", {{"p_partkey", ValueType::kInt64},
                               {"p_size", ValueType::kInt64},
                               {"p_retailprice", ValueType::kInt64}});
    for (int64_t k = 0; k < part_phys; ++k) {
      r->AppendIntRow({k, rng.UniformInt(1, 50),
                       90000 + (k % 200) * 100 + rng.UniformInt(0, 9999)});
    }
    r->set_logical_rows(static_cast<int64_t>(200000 * sf));
    db.part = r;
  }

  // partsupp
  {
    auto r = NewTable("partsupp", {{"ps_partkey", ValueType::kInt64},
                                   {"ps_suppkey", ValueType::kInt64},
                                   {"ps_availqty", ValueType::kInt64},
                                   {"ps_supplycost", ValueType::kInt64}});
    for (int64_t k = 0; k < ps_phys; ++k) {
      r->AppendIntRow({k / 4, rng.UniformInt(0, supp_phys - 1),
                       rng.UniformInt(1, 9999), rng.UniformInt(100, 100000)});
    }
    r->set_logical_rows(static_cast<int64_t>(800000 * sf));
    db.partsupp = r;
  }

  // orders
  std::vector<int64_t> order_dates(ord_phys);
  {
    auto r = NewTable("orders", {{"o_orderkey", ValueType::kInt64},
                                 {"o_custkey", ValueType::kInt64},
                                 {"o_orderdate", ValueType::kInt64},
                                 {"o_totalprice", ValueType::kInt64}});
    for (int64_t k = 0; k < ord_phys; ++k) {
      order_dates[k] = rng.UniformInt(kDateMin, kDateMax);
      r->AppendIntRow({k, rng.UniformInt(0, cust_phys - 1), order_dates[k],
                       rng.UniformInt(1000, 50000000)});
    }
    r->set_logical_rows(static_cast<int64_t>(1500000 * sf));
    db.orders = r;
  }

  // lineitem: exactly 4 lines per order keeps FK structure intact. Each
  // sample instance is an independent draw against the *same* orders.
  const int instances = std::max(1, options.num_lineitem_instances);
  for (int inst = 0; inst < instances; ++inst) {
    Rng li_rng(options.seed + 0x51ed270bULL * (inst + 1));
    auto r = NewTable(
        "lineitem", {{"l_orderkey", ValueType::kInt64},
                     {"l_partkey", ValueType::kInt64},
                     {"l_suppkey", ValueType::kInt64},
                     {"l_quantity", ValueType::kInt64},
                     {"l_extendedprice", ValueType::kInt64},
                     {"l_shipdate", ValueType::kInt64},
                     {"l_commitdate", ValueType::kInt64},
                     {"l_receiptdate", ValueType::kInt64}});
    // Part/supplier popularity: uniform per spec, Zipfian when the skew
    // knob is set (heavy-hitter workloads for docs/SKEW.md).
    const double key_skew = options.lineitem_key_skew;
    auto draw_key = [&li_rng, key_skew](int64_t n) {
      return key_skew > 0.0
                 ? static_cast<int64_t>(
                       li_rng.Zipf(static_cast<uint64_t>(n), key_skew))
                 : li_rng.UniformInt(0, n - 1);
    };
    for (int64_t k = 0; k < li_phys; ++k) {
      const int64_t okey = std::min(k / 4, ord_phys - 1);
      const int64_t odate = order_dates[okey];
      const int64_t ship = odate + li_rng.UniformInt(1, 121);
      const int64_t commit = odate + li_rng.UniformInt(30, 90);
      const int64_t receipt = ship + li_rng.UniformInt(1, 30);
      r->AppendIntRow({okey, draw_key(part_phys), draw_key(supp_phys),
                       li_rng.UniformInt(1, 50),
                       li_rng.UniformInt(90000, 10000000), ship, commit,
                       receipt});
    }
    r->set_logical_rows(static_cast<int64_t>(6000000 * sf));
    db.lineitem_samples.push_back(r);
  }
  db.lineitem = db.lineitem_samples[0];
  return db;
}

QueryBuilder TpchQueryBuilder(int which, const TpchData& data) {
  QueryBuilder b;
  switch (which) {
    case 7: {
      // Amended Q7: supplier/lineitem/orders/customer/nation, 8 conditions,
      // inequality set {<=, >=} (Table 3).
      b.From("s", data.supplier)
          .From("l", data.lineitem)
          .From("o", data.orders)
          .From("c", data.customer)
          .From("n", data.nation)
          .Where(Col("s.s_suppkey") == Col("l.l_suppkey"))
          .Where(Col("o.o_orderkey") == Col("l.l_orderkey"))
          .Where(Col("c.c_custkey") == Col("o.o_custkey"))
          .Where(Col("s.s_nationkey") == Col("n.n_nationkey"))
          .Where(Col("c.c_nationkey") == Col("n.n_nationkey"))
          .Where(Col("l.l_shipdate") >= Col("o.o_orderdate"))
          .Where(Col("l.l_receiptdate") <= Col("o.o_orderdate") + 120)
          .Where(Col("s.s_acctbal") >= Col("c.c_acctbal"))
          .Select("l.l_extendedprice");
      break;
    }
    case 17: {
      // Amended Q17: lineitem x2, part; inequality set {<=}.
      b.From("l1", data.lineitem_samples[0])
          .From("p", data.part)
          .From("l2", data.lineitem_samples[1])
          .Where(Col("l1.l_partkey") == Col("p.p_partkey"))
          .Where(Col("l2.l_partkey") == Col("p.p_partkey"))
          .Where(Col("l1.l_quantity") <= Col("l2.l_quantity"))
          .Where(Col("l1.l_extendedprice") <= Col("l2.l_extendedprice"))
          .Select("l1.l_extendedprice");
      break;
    }
    case 18: {
      // Amended Q18: customer, orders, lineitem x2; inequality set {>=}.
      b.From("c", data.customer)
          .From("o", data.orders)
          .From("l1", data.lineitem_samples[0])
          .From("l2", data.lineitem_samples[1])
          .Where(Col("c.c_custkey") == Col("o.o_custkey"))
          .Where(Col("o.o_orderkey") == Col("l1.l_orderkey"))
          .Where(Col("o.o_orderkey") == Col("l2.l_orderkey"))
          .Where(Col("l1.l_quantity") >= Col("l2.l_quantity"))
          .Select("c.c_custkey");
      break;
    }
    case 21: {
      // Amended Q21: supplier, lineitem x3, orders, nation; 8 conditions,
      // inequality set {>=, <>}.
      b.From("s", data.supplier)
          .From("l1", data.lineitem_samples[0])
          .From("o", data.orders)
          .From("n", data.nation)
          .From("l2", data.lineitem_samples[1])
          .From("l3", data.lineitem_samples[2])
          .Where(Col("s.s_suppkey") == Col("l1.l_suppkey"))
          .Where(Col("o.o_orderkey") == Col("l1.l_orderkey"))
          .Where(Col("s.s_nationkey") == Col("n.n_nationkey"))
          .Where(Col("l2.l_orderkey") == Col("l1.l_orderkey"))
          .Where(Col("l2.l_suppkey") != Col("l1.l_suppkey"))
          .Where(Col("l3.l_orderkey") == Col("l1.l_orderkey"))
          .Where(Col("l3.l_suppkey") != Col("l1.l_suppkey"))
          .Where(Col("l3.l_receiptdate") >= Col("l1.l_commitdate"))
          .Select("s.s_suppkey");
      break;
    }
    default:
      break;  // empty builder; Build reports the failure
  }
  return b;
}

StatusOr<Query> BuildTpchQuery17Filtered(const TpchData& data,
                                         int64_t quantity_cap) {
  QueryBuilder b = TpchQueryBuilder(17, data);
  const double cap = static_cast<double>(quantity_cap);
  b.Filter("l1", Col("l1.l_quantity") <= cap)
      .Filter("l2", Col("l2.l_quantity") <= cap);
  return b.Build();
}

}  // namespace mrtheta
