#include "minispark/cache_plan.h"

#include <cctype>
#include <charconv>
#include <limits>

namespace juggler::minispark {

bool CachePlan::IsPersisted(DatasetId d) const {
  for (const auto& op : ops) {
    if (op.kind == CacheOp::Kind::kPersist && op.dataset == d) return true;
  }
  return false;
}

std::vector<DatasetId> CachePlan::PersistedDatasets() const {
  std::vector<DatasetId> out;
  for (const auto& op : ops) {
    if (op.kind == CacheOp::Kind::kPersist) out.push_back(op.dataset);
  }
  return out;
}

std::vector<DatasetId> CachePlan::UnpersistBefore(DatasetId y) const {
  std::vector<DatasetId> out;
  std::vector<DatasetId> pending;
  for (const auto& op : ops) {
    if (op.kind == CacheOp::Kind::kUnpersist) {
      pending.push_back(op.dataset);
    } else {
      if (op.dataset == y) return pending;
      pending.clear();
    }
  }
  return out;
}

std::string CachePlan::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void CachePlan::AppendTo(std::string* out) const {
  if (ops.empty()) {
    out->push_back('-');
    return;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out->push_back(' ');
    char buf[16];  // "p(" + int + ")": at most 14 bytes.
    buf[0] = ops[i].kind == CacheOp::Kind::kPersist ? 'p' : 'u';
    buf[1] = '(';
    char* end =
        std::to_chars(buf + 2, buf + sizeof(buf) - 1, ops[i].dataset).ptr;
    *end++ = ')';
    out->append(buf, end);
  }
}

StatusOr<CachePlan> CachePlan::Parse(const std::string& text) {
  CachePlan plan;
  size_t i = 0;
  const auto fail = [&](const std::string& why) {
    return Status::InvalidArgument("CachePlan::Parse: " + why + " in '" + text +
                                   "'");
  };
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    const char c = text[i];
    if (c != 'p' && c != 'u') return fail("expected 'p' or 'u'");
    ++i;
    if (i >= text.size() || text[i] != '(') return fail("expected '('");
    ++i;
    int value = 0;
    bool any = false;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
      // Guard the accumulate: a forged "p(99999999999…)" in a model artifact
      // must be a parse error, not signed-integer overflow (UB).
      if (value > (std::numeric_limits<int>::max() - (text[i] - '0')) / 10) {
        return fail("dataset id out of range");
      }
      value = value * 10 + (text[i] - '0');
      any = true;
      ++i;
    }
    if (!any) return fail("expected dataset id");
    if (i >= text.size() || text[i] != ')') return fail("expected ')'");
    ++i;
    plan.ops.push_back(c == 'p' ? CacheOp::Persist(value)
                                : CacheOp::Unpersist(value));
  }
  return plan;
}

}  // namespace juggler::minispark
