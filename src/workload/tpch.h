#ifndef MRTHETA_WORKLOAD_TPCH_H_
#define MRTHETA_WORKLOAD_TPCH_H_

#include <cstdint>

#include "src/api/query_builder.h"
#include "src/common/status.h"
#include "src/core/query.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// \brief TPC-H-lite: a from-scratch dbgen analogue.
///
/// Generates the eight TPC-H tables with spec-shaped columns and foreign-key
/// structure, at a physical sample size suitable for local execution while
/// representing `scale_factor` worth of logical data (SF 1 ≈ 1 GB: 6M
/// lineitem rows etc.). Dates are day numbers in [0, 2557) (1992–1998);
/// prices are in cents.
struct TpchOptions {
  double scale_factor = 1.0;          ///< logical SF (SF 200 ≈ 200 GB)
  int64_t physical_lineitem_rows = 12000;
  /// Independent physical samples of lineitem for self-join aliases
  /// (Q17/Q18/Q21); see GenerateMobileCallsInstance's rationale.
  int num_lineitem_instances = 3;
  /// Zipf exponent of lineitem's part/supplier popularity (0 = the spec's
  /// uniform draw). Real catalogs sell a few parts constantly and the long
  /// tail rarely; raising this makes l_partkey/l_suppkey heavy-hitter
  /// columns for the skew-handling benchmarks (docs/SKEW.md).
  double lineitem_key_skew = 0.0;
  uint64_t seed = 19920101;
};

/// The generated database.
struct TpchData {
  RelationPtr region;    ///< r_regionkey
  RelationPtr nation;    ///< n_nationkey, n_regionkey
  RelationPtr supplier;  ///< s_suppkey, s_nationkey, s_acctbal
  RelationPtr customer;  ///< c_custkey, c_nationkey, c_acctbal
  RelationPtr part;      ///< p_partkey, p_size, p_retailprice
  RelationPtr partsupp;  ///< ps_partkey, ps_suppkey, ps_availqty, ps_supplycost
  RelationPtr orders;    ///< o_orderkey, o_custkey, o_orderdate, o_totalprice
  RelationPtr lineitem;  ///< l_orderkey, l_partkey, l_suppkey, l_quantity,
                         ///< l_extendedprice, l_shipdate, l_commitdate,
                         ///< l_receiptdate
  /// Independent samples of lineitem (lineitem == lineitem_samples[0]);
  /// all share the same orders, so foreign keys stay consistent.
  std::vector<RelationPtr> lineitem_samples;
};

TpchData GenerateTpch(const TpchOptions& options);

/// \brief Builder spec of the paper's amended TPC-H benchmark queries
/// (Sec. 6.3.2, Table 3): Q7 (5 relations, 8 conditions, {<=,>=}), Q17 (3
/// relations, 4 conditions, {<=}), Q18 (4 relations, 4 conditions, {>=})
/// and Q21 (6 relations, 8 conditions, {>=,<>}). Equality-only predicates
/// are amended with inequality join conditions exactly as the paper does.
/// Aliases follow the spec's table letters: s, l/l1/l2/l3, o, c, n, p. An
/// unsupported `which` yields a builder whose Build fails.
QueryBuilder TpchQueryBuilder(int which, const TpchData& data);

/// Q17 with the spec's single-relation selection restored: both lineitem
/// aliases keep only rows with l_quantity <= `quantity_cap` (the spec
/// filters on quantity below a per-part threshold; the cap plays that
/// role here). Exercises the Filter DSL / map-side selection pushdown
/// (docs/EXECUTOR.md): the join conditions and projection are exactly
/// TpchQueryBuilder(17)'s.
StatusOr<Query> BuildTpchQuery17Filtered(const TpchData& data,
                                         int64_t quantity_cap);

}  // namespace mrtheta

#endif  // MRTHETA_WORKLOAD_TPCH_H_
