#include "src/exec/theta_kernels.h"

#include <cmath>

namespace mrtheta {

const char* JoinKernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kGeneric:
      return "generic";
    case JoinKernel::kSortTheta:
      return "sort-theta";
  }
  return "?";
}

SortKeyDomain ClassifySortKey(const JoinCondition& cond,
                              const Relation& lhs_rel,
                              const Relation& rhs_rel) {
  const ValueType lt = lhs_rel.schema().column(cond.lhs.column).type;
  const ValueType rt = rhs_rel.schema().column(cond.rhs.column).type;
  const bool l_string = lt == ValueType::kString;
  const bool r_string = rt == ValueType::kString;
  if (l_string != r_string) return SortKeyDomain::kNone;
  if (l_string) {
    return cond.offset == 0.0 ? SortKeyDomain::kString : SortKeyDomain::kNone;
  }
  // Only an offset inside int64's range may be cast (an infinite one is
  // legal and stays in the double domain).
  const bool in_range = std::abs(cond.offset) < 0x1p63;
  const int64_t int_offset = in_range ? static_cast<int64_t>(cond.offset) : 0;
  if (lt == ValueType::kInt64 && rt == ValueType::kInt64 && in_range &&
      static_cast<double>(int_offset) == cond.offset) {
    return SortKeyDomain::kInt64;
  }
  return SortKeyDomain::kDouble;
}

int ChooseSortDriver(const std::vector<JoinCondition>& conditions,
                     const std::vector<RelationPtr>& base_relations) {
  int equality = -1;
  for (int i = 0; i < static_cast<int>(conditions.size()); ++i) {
    const JoinCondition& cond = conditions[i];
    if (cond.op == ThetaOp::kNe) continue;
    if (ClassifySortKey(cond, *base_relations[cond.lhs.relation],
                        *base_relations[cond.rhs.relation]) ==
        SortKeyDomain::kNone) {
      continue;
    }
    if (cond.op == ThetaOp::kEq) {
      if (equality < 0) equality = i;
      continue;
    }
    return i;
  }
  return equality;
}

}  // namespace mrtheta
