#include "plan/plan.h"

#include <set>

#include "common/string_util.h"
#include "storage/table.h"

namespace swole {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

DimJoin DimJoin::CloneTree() const {
  DimJoin copy;
  copy.hop = hop;
  copy.filter = filter ? filter->Clone() : nullptr;
  copy.children.reserve(children.size());
  for (const DimJoin& child : children) {
    copy.children.push_back(child.CloneTree());
  }
  return copy;
}

QueryPlan QueryPlan::Clone() const {
  auto clone = [](const ExprPtr& expr) {
    return expr != nullptr ? expr->Clone() : nullptr;
  };
  QueryPlan copy;
  copy.name = name;
  copy.fact_table = fact_table;
  copy.fact_filter = clone(fact_filter);
  for (const DimJoin& dim : dims) copy.dims.push_back(dim.CloneTree());
  for (const ReverseDim& rdim : reverse_dims) {
    copy.reverse_dims.push_back(ReverseDim{rdim.table, rdim.fk_column,
                                           clone(rdim.filter),
                                           rdim.fact_pk_column});
  }
  if (disjunctive.has_value()) {
    DisjunctiveJoin dj;
    dj.hop = disjunctive->hop;
    for (const DisjunctiveJoin::Clause& clause : disjunctive->clauses) {
      dj.clauses.push_back(
          {clone(clause.dim_filter), clone(clause.fact_filter)});
    }
    copy.disjunctive = std::move(dj);
  }
  copy.paths = paths;
  copy.path_equalities = path_equalities;
  copy.group_by = clone(group_by);
  copy.group_by_path = group_by_path;
  copy.group_cardinality_hint = group_cardinality_hint;
  copy.group_seed = group_seed;
  for (const AggSpec& agg : aggs) {
    AggSpec spec(agg.kind, clone(agg.expr), agg.name);
    spec.path_factor = agg.path_factor;
    copy.aggs.push_back(std::move(spec));
  }
  copy.histogram_of_agg0 = histogram_of_agg0;
  return copy;
}

const ColumnPath* QueryPlan::FindPath(const std::string& alias) const {
  for (const ColumnPath& path : paths) {
    if (path.alias == alias) return &path;
  }
  return nullptr;
}

namespace {
void AppendDim(const DimJoin& dim, int indent, std::string* out) {
  out->append(indent, ' ');
  *out += StringFormat("join %s via %s", dim.hop.to_table.c_str(),
                       dim.hop.fk_column.c_str());
  if (dim.filter != nullptr) {
    *out += StringFormat(" where %s", dim.filter->ToString().c_str());
  }
  *out += "\n";
  for (const DimJoin& child : dim.children) {
    AppendDim(child, indent + 2, out);
  }
}
}  // namespace

std::string QueryPlan::ToString() const {
  std::string out = StringFormat("plan %s: scan %s", name.c_str(),
                                 fact_table.c_str());
  if (fact_filter != nullptr) {
    out += StringFormat(" where %s", fact_filter->ToString().c_str());
  }
  out += "\n";
  for (const DimJoin& dim : dims) AppendDim(dim, 2, &out);
  for (const ReverseDim& rdim : reverse_dims) {
    out += StringFormat("  exists %s.%s -> %s", rdim.table.c_str(),
                        rdim.fk_column.c_str(), fact_table.c_str());
    if (rdim.filter != nullptr) {
      out += StringFormat(" where %s", rdim.filter->ToString().c_str());
    }
    out += "\n";
  }
  if (disjunctive.has_value()) {
    out += StringFormat("  disjunctive join %s via %s (%d clauses)\n",
                        disjunctive->hop.to_table.c_str(),
                        disjunctive->hop.fk_column.c_str(),
                        static_cast<int>(disjunctive->clauses.size()));
    for (const DisjunctiveJoin::Clause& clause : disjunctive->clauses) {
      out += StringFormat(
          "    clause %s and %s\n",
          clause.dim_filter ? clause.dim_filter->ToString().c_str() : "true",
          clause.fact_filter ? clause.fact_filter->ToString().c_str()
                             : "true");
    }
  }
  for (const ColumnPath& path : paths) {
    out += StringFormat("  path %s = ", path.alias.c_str());
    for (const Hop& hop : path.hops) {
      out += StringFormat("%s->%s.", hop.fk_column.c_str(),
                          hop.to_table.c_str());
    }
    out += path.column;
    if (!path.like_pattern.empty()) out += " like '" + path.like_pattern + "'";
    out += "\n";
  }
  for (const PathEquality& eq : path_equalities) {
    out += StringFormat("  require %s = %s\n", eq.left_alias.c_str(),
                        eq.right_alias.c_str());
  }
  if (group_by != nullptr) {
    out += StringFormat("  group by %s\n", group_by->ToString().c_str());
  } else if (!group_by_path.empty()) {
    out += StringFormat("  group by path %s\n", group_by_path.c_str());
  }
  for (const AggSpec& agg : aggs) {
    out += StringFormat("  agg %s = %s(%s)%s\n", agg.name.c_str(),
                        AggKindName(agg.kind),
                        agg.expr ? agg.expr->ToString().c_str() : "*",
                        agg.path_factor.empty()
                            ? ""
                            : (" * " + agg.path_factor).c_str());
  }
  if (group_cardinality_hint > 0) {
    out += StringFormat("  expect %lld groups\n",
                        static_cast<long long>(group_cardinality_hint));
  }
  if (group_seed.has_value()) {
    out += StringFormat("  seed groups from %s.%s\n",
                        group_seed->table.c_str(),
                        group_seed->key_column.c_str());
  }
  if (histogram_of_agg0) out += "  histogram of agg 0\n";
  return out;
}

Status Catalog::AddTable(std::shared_ptr<Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("Catalog::AddTable: null table");
  }
  for (const auto& existing : tables_) {
    if (existing->name() == table->name()) {
      return Status::AlreadyExists(
          StringFormat("table '%s' already in catalog", table->name().c_str()));
    }
  }
  tables_.push_back(std::move(table));
  return Status::OK();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (table->name() == name) return static_cast<const Table*>(table.get());
  }
  return Status::NotFound(StringFormat("no table '%s' in catalog",
                                       name.c_str()));
}

const Table& Catalog::TableRef(const std::string& name) const {
  Result<const Table*> result = GetTable(name);
  result.status().CheckOK();
  return *result.value();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& table : tables_) names.push_back(table->name());
  return names;
}

namespace {

Status ValidateHop(const Hop& hop, const Table& from, const Catalog& catalog,
                   const Table** to_out) {
  SWOLE_ASSIGN_OR_RETURN(const Table* to, catalog.GetTable(hop.to_table));
  if (!from.HasColumn(hop.fk_column)) {
    return Status::NotFound(
        StringFormat("hop fk column '%s' not in table '%s'",
                     hop.fk_column.c_str(), from.name().c_str()));
  }
  if (!from.GetFkIndex(hop.fk_column).ok()) {
    return Status::InvalidArgument(StringFormat(
        "no fk index registered for '%s.%s' (required for join to '%s')",
        from.name().c_str(), hop.fk_column.c_str(), hop.to_table.c_str()));
  }
  if (!to->HasColumn(hop.to_pk_column)) {
    return Status::NotFound(StringFormat(
        "hop pk column '%s' not in table '%s'", hop.to_pk_column.c_str(),
        hop.to_table.c_str()));
  }
  *to_out = to;
  return Status::OK();
}

Status ValidateDim(const DimJoin& dim, const Table& parent,
                   const Catalog& catalog) {
  const Table* dim_table = nullptr;
  SWOLE_RETURN_NOT_OK(ValidateHop(dim.hop, parent, catalog, &dim_table));
  if (dim.filter != nullptr) {
    SWOLE_RETURN_NOT_OK(BindExpr(*dim.filter, *dim_table));
    if (!dim.filter->IsBoolean()) {
      return Status::TypeError(StringFormat(
          "dimension filter on '%s' is not boolean", dim.hop.to_table.c_str()));
    }
  }
  for (const DimJoin& child : dim.children) {
    SWOLE_RETURN_NOT_OK(ValidateDim(child, *dim_table, catalog));
  }
  return Status::OK();
}

}  // namespace

Status ValidatePlan(const QueryPlan& plan, const Catalog& catalog) {
  SWOLE_ASSIGN_OR_RETURN(const Table* fact,
                         catalog.GetTable(plan.fact_table));

  if (plan.fact_filter != nullptr) {
    SWOLE_RETURN_NOT_OK(BindExpr(*plan.fact_filter, *fact));
    if (!plan.fact_filter->IsBoolean()) {
      return Status::TypeError("fact filter is not boolean");
    }
  }

  for (const DimJoin& dim : plan.dims) {
    SWOLE_RETURN_NOT_OK(ValidateDim(dim, *fact, catalog));
  }

  for (const ReverseDim& rdim : plan.reverse_dims) {
    SWOLE_ASSIGN_OR_RETURN(const Table* rtable, catalog.GetTable(rdim.table));
    if (!rtable->GetFkIndex(rdim.fk_column).ok()) {
      return Status::InvalidArgument(StringFormat(
          "no fk index for reverse dim '%s.%s'", rdim.table.c_str(),
          rdim.fk_column.c_str()));
    }
    if (!fact->HasColumn(rdim.fact_pk_column)) {
      return Status::NotFound(StringFormat(
          "fact pk column '%s' not in '%s'", rdim.fact_pk_column.c_str(),
          plan.fact_table.c_str()));
    }
    if (rdim.filter != nullptr) {
      SWOLE_RETURN_NOT_OK(BindExpr(*rdim.filter, *rtable));
    }
  }

  if (plan.disjunctive.has_value()) {
    const Table* dim_table = nullptr;
    SWOLE_RETURN_NOT_OK(
        ValidateHop(plan.disjunctive->hop, *fact, catalog, &dim_table));
    if (plan.disjunctive->clauses.empty()) {
      return Status::InvalidArgument("disjunctive join with no clauses");
    }
    for (const DisjunctiveJoin::Clause& clause : plan.disjunctive->clauses) {
      if (clause.dim_filter != nullptr) {
        SWOLE_RETURN_NOT_OK(BindExpr(*clause.dim_filter, *dim_table));
      }
      if (clause.fact_filter != nullptr) {
        SWOLE_RETURN_NOT_OK(BindExpr(*clause.fact_filter, *fact));
      }
    }
  }

  std::set<std::string> aliases;
  for (const ColumnPath& path : plan.paths) {
    if (path.alias.empty() || !aliases.insert(path.alias).second) {
      return Status::InvalidArgument(StringFormat(
          "missing or duplicate path alias '%s'", path.alias.c_str()));
    }
    if (path.hops.empty()) {
      return Status::InvalidArgument(
          StringFormat("path '%s' has no hops", path.alias.c_str()));
    }
    const Table* current = fact;
    for (const Hop& hop : path.hops) {
      const Table* next = nullptr;
      SWOLE_RETURN_NOT_OK(ValidateHop(hop, *current, catalog, &next));
      current = next;
    }
    if (!current->HasColumn(path.column)) {
      return Status::NotFound(StringFormat(
          "path '%s': no column '%s' in table '%s'", path.alias.c_str(),
          path.column.c_str(), current->name().c_str()));
    }
    if (!path.like_pattern.empty()) {
      const Column& target = current->ColumnRef(path.column);
      if (target.type().logical != LogicalType::kString ||
          target.dictionary() == nullptr) {
        return Status::TypeError(StringFormat(
            "path '%s': LIKE flag requires a dictionary column",
            path.alias.c_str()));
      }
    }
  }

  for (const PathEquality& eq : plan.path_equalities) {
    if (plan.FindPath(eq.left_alias) == nullptr ||
        plan.FindPath(eq.right_alias) == nullptr) {
      return Status::NotFound(StringFormat(
          "path equality references unknown alias ('%s' = '%s')",
          eq.left_alias.c_str(), eq.right_alias.c_str()));
    }
  }

  if (plan.group_by != nullptr && !plan.group_by_path.empty()) {
    return Status::InvalidArgument(
        "group_by and group_by_path are mutually exclusive");
  }
  if (plan.group_by != nullptr) {
    SWOLE_RETURN_NOT_OK(BindExpr(*plan.group_by, *fact));
  }
  if (!plan.group_by_path.empty() &&
      plan.FindPath(plan.group_by_path) == nullptr) {
    return Status::NotFound(StringFormat("group_by_path alias '%s' unknown",
                                         plan.group_by_path.c_str()));
  }

  if (plan.group_seed.has_value()) {
    if (!plan.HasGroupBy()) {
      return Status::InvalidArgument("group_seed without group-by");
    }
    SWOLE_ASSIGN_OR_RETURN(const Table* seed_table,
                           catalog.GetTable(plan.group_seed->table));
    if (!seed_table->HasColumn(plan.group_seed->key_column)) {
      return Status::NotFound(StringFormat(
          "group seed column '%s' not in '%s'",
          plan.group_seed->key_column.c_str(),
          plan.group_seed->table.c_str()));
    }
  }

  if (plan.aggs.empty()) {
    return Status::InvalidArgument("plan has no aggregates");
  }
  for (const AggSpec& agg : plan.aggs) {
    if (agg.kind == AggKind::kCount) {
      if (agg.expr != nullptr) {
        return Status::InvalidArgument("count aggregate takes no expression");
      }
    } else {
      if (agg.expr == nullptr) {
        return Status::InvalidArgument(StringFormat(
            "aggregate '%s' has no expression", agg.name.c_str()));
      }
      SWOLE_RETURN_NOT_OK(BindExpr(*agg.expr, *fact));
    }
    if (plan.HasGroupBy() &&
        agg.kind != AggKind::kSum && agg.kind != AggKind::kCount) {
      return Status::Unimplemented(
          "grouped aggregation supports only sum and count");
    }
    if (!agg.path_factor.empty()) {
      if (plan.FindPath(agg.path_factor) == nullptr) {
        return Status::NotFound(StringFormat(
            "aggregate '%s': unknown path factor '%s'", agg.name.c_str(),
            agg.path_factor.c_str()));
      }
      if (agg.kind != AggKind::kSum) {
        return Status::InvalidArgument(
            "path_factor is only supported on sum aggregates");
      }
    }
  }

  if (plan.histogram_of_agg0 && !plan.HasGroupBy()) {
    return Status::InvalidArgument("histogram_of_agg0 requires group-by");
  }

  return Status::OK();
}

}  // namespace swole
