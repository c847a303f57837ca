#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {

namespace {

// Area fractions of the E3 S1..S7 selection ladder.
constexpr double kLadderFractions[7] = {0.0001, 0.001, 0.01, 0.05,
                                        0.15,   0.5,   1.0};

// viewport_hot: share of statements that exactly repeat one of a few
// popular statements, and how many popular statements there are.
constexpr double kPopularShare = 0.25;
constexpr int kPopularStatements = 12;
// near_transit: one statement in this many is a NEAR join; the rest are
// polygon regions with thematic predicates. NEAR distances are drawn from
// this many equal strata of [2, 20] m.
constexpr int kNearEvery = 16;
constexpr int kNearStrata = 8;

/// Pops the next entry of `deck`, refilling it first with 0..n-1 in
/// shuffled order when it is empty.
int Deal(std::vector<int>* deck, int n, std::mt19937_64* rng) {
  if (deck->empty()) {
    for (int i = 0; i < n; ++i) deck->push_back(i);
    std::shuffle(deck->begin(), deck->end(), *rng);
  }
  const int v = deck->back();
  deck->pop_back();
  return v;
}

std::string Fmt(const char* fmt, double a, double b, double c, double d) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kViewportHot, Workload::kLadder,
                     Workload::kNearTransit}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kViewportHot: return "viewport_hot";
    case Workload::kLadder: return "ladder";
    case Workload::kNearTransit: return "near_transit";
  }
  return "?";
}

StatementStream::StatementStream(Workload w, const geocol::Box& extent,
                                 uint64_t seed, bool fresh_only)
    : workload_(w), extent_(extent), fresh_only_(fresh_only), rng_(seed) {
  if (w != Workload::kViewportHot || fresh_only) return;
  // The popular statements depend on the seed only, so every stream of
  // one run agrees on them.
  std::mt19937_64 popular_rng(seed ^ 0x9e3779b97f4a7c15ull);
  StatementStream fresh(w, extent, popular_rng(), /*fresh_only=*/true);
  for (int i = 0; i < kPopularStatements; ++i) {
    popular_.push_back(fresh.Next());
  }
}

std::string StatementStream::Next() {
  switch (workload_) {
    case Workload::kViewportHot: return NextViewport();
    case Workload::kLadder: return NextLadder();
    case Workload::kNearTransit: return NextNearTransit();
  }
  return "";
}

std::string StatementStream::ViewportShape(int shape,
                                           const std::string& where) {
  switch (shape) {
    case 0: return "SELECT COUNT(*) FROM ahn2 WHERE " + where;
    case 1: return "SELECT AVG(z), MAX(z) FROM ahn2 WHERE " + where;
    default: return "SELECT x, y, z FROM ahn2 WHERE " + where + " LIMIT 32";
  }
}

// Pans around one hot region (the E3 query centre, 24 % of the extent per
// axis) with jittered viewports of about 1 % of the survey area, written
// as x/y BETWEEN ranges in the three E18 shapes.
std::string StatementStream::NextViewport() {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  if (!fresh_only_ && u01(rng_) < kPopularShare) {
    std::uniform_int_distribution<size_t> pick(0, popular_.size() - 1);
    return popular_[pick(rng_)];
  }
  const double w = extent_.width(), h = extent_.height();
  const double cx = extent_.min_x + w * (0.43 + 0.24 * (u01(rng_) - 0.5));
  const double cy = extent_.min_y + h * (0.57 + 0.24 * (u01(rng_) - 0.5));
  const double side = std::sqrt(w * h * 0.01) * (0.85 + 0.3 * u01(rng_));
  const double aspect = 0.8 + 0.45 * u01(rng_);
  const double hw = side * std::sqrt(aspect) / 2, hh = side / std::sqrt(aspect) / 2;
  std::string where = Fmt("x BETWEEN %.3f AND %.3f AND y BETWEEN %.3f AND %.3f",
                          cx - hw, cx + hw, cy - hh, cy + hh);
  std::uniform_int_distribution<int> shape(0, 2);
  return ViewportShape(shape(rng_), where);
}

// The E3 S1..S7 area ladder at random positions: each statement draws a
// size class, shrinks its area by a random 0-20 % and places it anywhere
// inside the extent, so no two statements share a selection. Small
// selections are drawn more often than large ones, as in interactive
// navigation.
std::string StatementStream::NextLadder() {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  if (ladder_deck_.empty()) {
    // Size classes are dealt from shuffled decks of fixed composition, so
    // every stretch of the stream has the same mix of small and large
    // selections.
    const int per_class[7] = {6, 6, 6, 4, 2, 1, 1};
    for (int k = 0; k < 7; ++k) ladder_deck_.insert(ladder_deck_.end(), per_class[k], k);
    std::shuffle(ladder_deck_.begin(), ladder_deck_.end(), rng_);
  }
  const int size_class = ladder_deck_.back();
  ladder_deck_.pop_back();
  const double frac = kLadderFractions[size_class] * (0.8 + 0.2 * u01(rng_));
  const double w = extent_.width(), h = extent_.height();
  const double aspect = 0.8 + 0.45 * u01(rng_);
  const double bw = std::min(w, std::sqrt(w * h * frac * aspect));
  const double bh = std::min(h, w * h * frac / bw);
  const double x0 = extent_.min_x + (w - bw) * u01(rng_);
  const double y0 = extent_.min_y + (h - bh) * u01(rng_);
  std::string box = Fmt("ST_Within(pt, 'BOX(%.3f %.3f, %.3f %.3f)')", x0, y0,
                        x0 + bw, y0 + bh);
  return (u01(rng_) < 0.5 ? "SELECT COUNT(*) FROM ahn2 WHERE "
                          : "SELECT AVG(z) FROM ahn2 WHERE ") +
         box;
}

// The E6 scenario-2 traffic: NEAR(urban_atlas, fast transit, d) joins at a
// seeded distance, between rotated quadrilateral regions of about 1 % of
// the area combined with classification/intensity predicates. Every
// statement goes through grid refinement. The joins cost far more than
// the regions, so they are dealt from decks: exactly one in every
// kNearEvery statements, and their distances cover every stratum once per
// kNearStrata joins. Every stretch of the stream then costs about the same.
std::string StatementStream::NextNearTransit() {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::uniform_int_distribution<int> which(0, kNearEvery - 1);
  char buf[512];
  if (Deal(&near_deck_, kNearEvery, &rng_) == 0) {
    const int stratum = Deal(&near_d_deck_, kNearStrata, &rng_);
    const double d = 2.0 + 18.0 * (stratum + u01(rng_)) / kNearStrata;
    std::snprintf(buf, sizeof(buf),
                  "SELECT %s FROM ahn2 WHERE NEAR(urban_atlas, 12210, %.3f)",
                  u01(rng_) < 0.5 ? "COUNT(*)" : "AVG(z)", d);
    return buf;
  }
  const double w = extent_.width(), h = extent_.height();
  const double r = std::sqrt(w * h * 0.01) * (0.6 + 0.3 * u01(rng_));
  const double cx = extent_.min_x + r + (w - 2 * r) * u01(rng_);
  const double cy = extent_.min_y + r + (h - 2 * r) * u01(rng_);
  const double theta = 1.5707963267948966 * u01(rng_);
  double px[4], py[4];
  for (int i = 0; i < 4; ++i) {
    const double a = theta + 1.5707963267948966 * i;
    const double ri = r * (0.75 + 0.25 * u01(rng_));
    px[i] = cx + ri * std::cos(a);
    py[i] = cy + ri * std::sin(a);
  }
  std::string thematic;
  switch (which(rng_) % 3) {
    case 0: thematic = "classification BETWEEN 3 AND 5"; break;
    case 1:
      std::snprintf(buf, sizeof(buf), "classification = 2 AND intensity >= %d",
                    90 + static_cast<int>(40 * u01(rng_)));
      thematic = buf;
      break;
    default:
      std::snprintf(buf, sizeof(buf), "intensity BETWEEN %d AND %d",
                    80 + static_cast<int>(20 * u01(rng_)),
                    110 + static_cast<int>(30 * u01(rng_)));
      thematic = buf;
      break;
  }
  std::snprintf(buf, sizeof(buf),
                "SELECT %s FROM ahn2 WHERE ST_Within(pt, 'POLYGON((%.3f %.3f, "
                "%.3f %.3f, %.3f %.3f, %.3f %.3f, %.3f %.3f))') AND %s",
                u01(rng_) < 0.5 ? "COUNT(*)" : "AVG(z), COUNT(*)", px[0], py[0],
                px[1], py[1], px[2], py[2], px[3], py[3], px[0], py[0],
                thematic.c_str());
  return buf;
}

}  // namespace e2ebench
