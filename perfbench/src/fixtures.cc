#include "fixtures.h"

#include <algorithm>
#include <cmath>

#include "workload/builders.h"

namespace perfbench {
namespace {

using blowfish::DomainShape;
using blowfish::Policy;
using blowfish::Rng;
using blowfish::Vector;

Vector SeededHistogram(size_t k, Rng* rng) {
  Vector x(k);
  for (double& v : x) v = static_cast<double>(rng->UniformInt(0, 100));
  return x;
}

void AddPolicy(Fixture* f, std::string name, std::string family, Policy policy,
               Rng* rng) {
  const size_t k = policy.domain_size();
  f->policies.push_back(PolicySpec{std::move(name), std::move(family),
                                   std::move(policy), SeededHistogram(k, rng)});
}

void AddRangeTemplate(Fixture* f, size_t policy, size_t count, Rng* rng) {
  const PolicySpec& spec = f->policies[policy];
  Template t;
  t.policy = policy;
  t.request.policy = spec.name;
  t.request.epsilon = kEpsilon;
  t.request.ranges = blowfish::RandomRanges(spec.policy.domain, count, rng);
  t.truth = t.request.ranges->Answer(spec.data);
  t.cells = t.request.ranges->Answer(Vector(spec.data.size(), 1.0));
  f->templates.push_back(std::move(t));
}

void AddIdentityTemplate(Fixture* f, size_t policy) {
  const PolicySpec& spec = f->policies[policy];
  Template t;
  t.policy = policy;
  t.request.policy = spec.name;
  t.request.epsilon = kEpsilon;
  t.request.workload = blowfish::IdentityWorkload(spec.data.size());
  t.truth = t.request.workload.Answer(spec.data);
  t.cells = t.request.workload.Answer(Vector(spec.data.size(), 1.0));
  f->templates.push_back(std::move(t));
}

void AddSessions(Fixture* f, size_t count) {
  // Eight tenant classes ("t3:1234"): the engine's per-tenant metric
  // families see a bounded label set, and every id fits the small
  // string buffer so request assignment does not allocate.
  for (size_t i = 0; i < count; ++i) {
    f->sessions.push_back("t" + std::to_string(i % 8) + ":" + std::to_string(i));
  }
}

// admit-small / journal-small: four k=64 policies, one per planner
// family the small-release path dispatches to, each with a dense
// histogram workload and a 16-range workload.
void SmallPolicies(Fixture* f, Rng* rng) {
  AddPolicy(f, "line", "line_tree", blowfish::LinePolicy(64), rng);
  AddPolicy(f, "theta", "theta_line", blowfish::Theta1DPolicy(64, 4), rng);
  AddPolicy(f, "grid", "grid_matrix",
            blowfish::GridPolicy(DomainShape({8, 8}), 1), rng);
  AddPolicy(f, "dp", "unbounded", blowfish::UnboundedDpPolicy(64), rng);
  for (size_t p = 0; p < f->policies.size(); ++p) {
    AddIdentityTemplate(f, p);
    AddRangeTemplate(f, p, 16, rng);
  }
  AddSessions(f, 8192);
}

// release-heavy: the paper's range mechanisms at sizes where the
// release dominates admission.
void HeavyPolicies(Fixture* f, Rng* rng) {
  AddPolicy(f, "slab", "grid_slab",
            blowfish::GridPolicy(DomainShape({16, 16}), 4), rng);
  AddPolicy(f, "gridm", "grid_matrix",
            blowfish::GridPolicy(DomainShape({32, 32}), 1), rng);
  AddPolicy(f, "spanner", "theta_line", blowfish::Theta1DPolicy(4096, 4), rng);
  AddPolicy(f, "tree", "line_tree", blowfish::LinePolicy(4096), rng);
  const size_t counts[4][2] = {{1024, 512}, {1024, 384}, {1000, 500}, {800, 300}};
  for (size_t p = 0; p < f->policies.size(); ++p) {
    for (size_t c : counts[p]) AddRangeTemplate(f, p, c, rng);
  }
  AddSessions(f, 256);
}

// cold-churn: 24 policies over all five families with Zipf-skewed
// popularity, each serving one small range workload.
void ChurnPolicies(Fixture* f, Rng* rng) {
  const size_t lines[] = {256, 384, 512, 768, 1024, 1536};
  for (size_t i = 0; i < 6; ++i) {
    AddPolicy(f, "line" + std::to_string(i), "line_tree",
              blowfish::LinePolicy(lines[i]), rng);
  }
  const size_t thetas[6][2] = {{256, 2}, {384, 3}, {512, 2},
                               {512, 4}, {768, 3}, {1024, 4}};
  for (size_t i = 0; i < 6; ++i) {
    AddPolicy(f, "theta" + std::to_string(i), "theta_line",
              blowfish::Theta1DPolicy(thetas[i][0], thetas[i][1]), rng);
  }
  const size_t grids[] = {8, 10, 12, 16};
  for (size_t i = 0; i < 4; ++i) {
    AddPolicy(f, "grid" + std::to_string(i), "grid_matrix",
              blowfish::GridPolicy(DomainShape({grids[i], grids[i]}), 1), rng);
  }
  const size_t slabs[4][2] = {{8, 2}, {10, 2}, {12, 3}, {12, 2}};
  for (size_t i = 0; i < 4; ++i) {
    AddPolicy(f, "slab" + std::to_string(i), "grid_slab",
              blowfish::GridPolicy(DomainShape({slabs[i][0], slabs[i][0]}),
                                   slabs[i][1]),
              rng);
  }
  const size_t dps[] = {256, 512, 1024, 2048};
  for (size_t i = 0; i < 4; ++i) {
    AddPolicy(f, "dp" + std::to_string(i), "unbounded",
              blowfish::UnboundedDpPolicy(dps[i]), rng);
  }
  for (size_t p = 0; p < f->policies.size(); ++p) AddRangeTemplate(f, p, 16, rng);
  AddSessions(f, 256);
}

}  // namespace

bool KnownWorkload(const std::string& w) {
  return w == "admit-small" || w == "journal-small" || w == "release-heavy" ||
         w == "cold-churn";
}

Fixture MakeFixture(const std::string& workload, uint64_t seed) {
  Fixture f;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EEDull);
  if (workload == "release-heavy") {
    HeavyPolicies(&f, &rng);
  } else if (workload == "cold-churn") {
    ChurnPolicies(&f, &rng);
  } else {
    SmallPolicies(&f, &rng);
  }
  f.weights.assign(f.templates.size(), 1.0);
  if (workload == "cold-churn") {
    // Zipf(1) popularity over a seeded permutation of the templates.
    std::vector<size_t> order(f.templates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t r = 0; r < order.size(); ++r) {
      f.weights[order[r]] = 1.0 / static_cast<double>(r + 1);
    }
  }
  return f;
}

Vector DataAt(const PolicySpec& spec, int generation) {
  Vector x = spec.data;
  for (double& v : x) v += generation;
  return x;
}

std::vector<double> Cumulative(const std::vector<double>& weights) {
  std::vector<double> c(weights.size());
  double sum = 0;
  for (size_t i = 0; i < weights.size(); ++i) c[i] = (sum += weights[i]);
  return c;
}

size_t DrawWeighted(const std::vector<double>& cumulative, Rng* rng) {
  const double u = rng->Uniform(0.0, cumulative.back());
  const size_t i = static_cast<size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), u) -
      cumulative.begin());
  return std::min(i, cumulative.size() - 1);
}

}  // namespace perfbench
