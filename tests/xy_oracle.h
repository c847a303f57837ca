// Seeded x/y range statements and a full-scan oracle for them, shared by
// the differential suites. Each statement bounds x and y the ways SQL
// can — BETWEEN, one-sided >= / <=, ranges past the table extent, ranges
// a >= / <= pair empties — alone or with a box, polygon, ST_DWithin or
// thematic predicate. The oracle evaluates the same conjunction row by
// row over a resident table and renders the expected result sets, so
// every layout (flat, live, paged, sharded, batched or solo) is checked
// bit for bit against one independent answer.
#ifndef GEOCOL_TESTS_XY_ORACLE_H_
#define GEOCOL_TESTS_XY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "columns/flat_table.h"
#include "geom/geometry.h"
#include "geom/predicates.h"
#include "sql/executor.h"
#include "util/rng.h"

namespace geocol {
namespace xytest {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Extent of MakeXyTable. Positive coordinates keep every bound a plain
/// SQL number (the dialect lexes a sign only after a symbol).
inline Box XyExtent() { return Box(5000, 5000, 6000, 6000); }

/// Clustered points (so shard bboxes separate and pruning matters) with
/// the columns the statements touch: x, y, z, classification, intensity.
inline std::shared_ptr<FlatTable> MakeXyTable(size_t n, uint64_t seed) {
  const Box e = XyExtent();
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  std::vector<uint8_t> cls(n);
  std::vector<uint16_t> intensity(n);
  for (size_t i = 0; i < n; ++i) {
    const double cx = e.min_x + (i % 5) * e.width() / 5.0;
    const double cy = e.min_y + (i % 7) * e.height() / 7.0;
    xs[i] = std::clamp(cx + rng.UniformDouble(0, e.width() / 6.0), e.min_x,
                       e.max_x);
    ys[i] = std::clamp(cy + rng.UniformDouble(0, e.height() / 8.0), e.min_y,
                       e.max_y);
    zs[i] = rng.UniformDouble(-5, 40);
    cls[i] = static_cast<uint8_t>(rng.Uniform(10));
    intensity[i] = static_cast<uint16_t>(rng.Uniform(256));
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("classification", cls)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("intensity", intensity)).ok());
  return t;
}

/// One WHERE clause and the conjunction it means.
struct XyQuery {
  std::string where;
  double x_lo = -kInf, x_hi = kInf, y_lo = -kInf, y_hi = kInf;
  enum class Spatial { kNone, kWithin, kDWithin } spatial = Spatial::kNone;
  Geometry geometry;
  double distance = 0.0;
  struct Range {
    std::string column;
    double lo, hi;
  };
  std::vector<Range> thematic;
};

inline std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// WKT with round-trip precision, so the parsed geometry is exactly the
/// one the oracle tests against.
inline std::string ExactWkt(const Geometry& g) {
  auto pt = [](const Point& p) { return Num(p.x) + " " + Num(p.y); };
  if (g.is_box()) {
    const Box& b = g.box();
    return "BOX(" + pt({b.min_x, b.min_y}) + ", " + pt({b.max_x, b.max_y}) +
           ")";
  }
  if (g.type() == GeometryType::kPoint) return "POINT(" + pt(g.point()) + ")";
  std::string s = "POLYGON((";
  const std::vector<Point>& ring = g.polygon().shell.points;
  for (size_t i = 0; i < ring.size(); ++i) {
    s += (i == 0 ? "" : ", ") + pt(ring[i]);
  }
  return s + "))";
}

/// Appends one axis's predicates in a randomly chosen form.
inline void AddAxis(Rng* rng, const std::string& axis, double min, double max,
                    std::vector<std::string>* terms, double* lo, double* hi) {
  const double w = max - min;
  const double a = rng->UniformDouble(min, max - w * 0.1);
  const double b = a + rng->UniformDouble(w * 0.01, w * 0.5);
  switch (rng->Uniform(7)) {
    case 0:  // unbounded: the plan takes the table extent
      return;
    case 1:
      terms->push_back(axis + " BETWEEN " + Num(a) + " AND " + Num(b));
      *lo = a;
      *hi = b;
      return;
    case 2:
      terms->push_back(axis + " >= " + Num(a));
      *lo = a;
      return;
    case 3:
      terms->push_back(axis + " <= " + Num(b));
      *hi = b;
      return;
    case 4: {  // past the extent on both sides
      const double l = min - w * rng->UniformDouble(0.01, 0.3);
      const double h = max + w * rng->UniformDouble(0.01, 0.3);
      terms->push_back(axis + " BETWEEN " + Num(l) + " AND " + Num(h));
      *lo = l;
      *hi = h;
      return;
    }
    case 5:  // emptied: the merged range is inverted
      terms->push_back(axis + " >= " + Num(b) + " AND " + axis +
                       " <= " + Num(a));
      *lo = b;
      *hi = a;
      return;
    default:  // the same range as a >= / <= pair
      terms->push_back(axis + " >= " + Num(a) + " AND " + axis +
                       " <= " + Num(b));
      *lo = a;
      *hi = b;
      return;
  }
}

/// `count` seeded WHERE clauses over `extent`; every one bounds x or y.
inline std::vector<XyQuery> MakeXyQueries(uint64_t seed, size_t count,
                                          const Box& extent) {
  Rng rng(seed);
  std::vector<XyQuery> out;
  while (out.size() < count) {
    XyQuery q;
    std::vector<std::string> terms;
    AddAxis(&rng, "x", extent.min_x, extent.max_x, &terms, &q.x_lo, &q.x_hi);
    AddAxis(&rng, "y", extent.min_y, extent.max_y, &terms, &q.y_lo, &q.y_hi);
    if (terms.empty()) continue;
    const double w = extent.width(), h = extent.height();
    const Point c{extent.min_x + rng.UniformDouble(0.2, 0.8) * w,
                  extent.min_y + rng.UniformDouble(0.2, 0.8) * h};
    switch (rng.Uniform(4)) {
      case 0:
        break;
      case 1: {
        const double bw = rng.UniformDouble(0.05, 0.5) * w;
        const double bh = rng.UniformDouble(0.05, 0.5) * h;
        q.spatial = XyQuery::Spatial::kWithin;
        q.geometry = Geometry(Box(c.x - bw / 2, c.y - bh / 2, c.x + bw / 2,
                                  c.y + bh / 2));
        break;
      }
      case 2: {
        Polygon p;
        const int n = 3 + static_cast<int>(rng.Uniform(6));
        for (int j = 0; j < n; ++j) {
          const double ang = 2 * M_PI * j / n;
          const double r = rng.UniformDouble(0.05, 0.3) * w;
          p.shell.points.push_back(
              {c.x + r * std::cos(ang), c.y + r * std::sin(ang)});
        }
        p.shell.points.push_back(p.shell.points.front());
        q.spatial = XyQuery::Spatial::kWithin;
        q.geometry = Geometry(std::move(p));
        break;
      }
      default:
        q.spatial = XyQuery::Spatial::kDWithin;
        q.geometry = Geometry(c);
        q.distance = rng.UniformDouble(0.02, 0.3) * w;
        break;
    }
    if (q.spatial == XyQuery::Spatial::kWithin) {
      terms.push_back("ST_Within(pt, '" + ExactWkt(q.geometry) + "')");
    } else if (q.spatial == XyQuery::Spatial::kDWithin) {
      terms.push_back("ST_DWithin(pt, '" + ExactWkt(q.geometry) + "', " +
                      Num(q.distance) + ")");
    }
    if (rng.NextBool(0.3)) {
      const double lo = rng.Uniform(6), hi = lo + 2 + rng.Uniform(4);
      q.thematic.push_back({"classification", lo, hi});
      terms.push_back("classification BETWEEN " + Num(lo) + " AND " +
                      Num(hi));
    }
    if (rng.NextBool(0.2)) {
      const double lo = rng.Uniform(200);
      q.thematic.push_back({"intensity", lo, kInf});
      terms.push_back("intensity >= " + Num(lo));
    }
    // Shuffle so folded ranges sit anywhere in the conjunction.
    for (size_t i = terms.size(); i > 1; --i) {
      std::swap(terms[i - 1], terms[rng.Uniform(static_cast<uint32_t>(i))]);
    }
    for (size_t i = 0; i < terms.size(); ++i) {
      q.where += (i == 0 ? "" : " AND ") + terms[i];
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// The two statements run per clause: an aggregate row and an ordered,
/// limited projection.
inline std::string AggregateSql(const std::string& table, const XyQuery& q) {
  return "SELECT COUNT(*), SUM(z), AVG(intensity), MIN(x), MAX(y) FROM " +
         table + " WHERE " + q.where;
}
inline std::string ProjectSql(const std::string& table, const XyQuery& q) {
  return "SELECT x, y, z, intensity FROM " + table + " WHERE " + q.where +
         " ORDER BY z DESC LIMIT 25";
}

inline std::vector<double> ColumnValues(const FlatTable& t,
                                        const std::string& name) {
  ColumnPtr c = t.column(name);
  std::vector<double> v(c->size());
  for (size_t r = 0; r < v.size(); ++r) v[r] = c->GetDouble(r);
  return v;
}

/// Ascending ids of the rows of `t` that satisfy `q`, by a full scan.
inline std::vector<uint64_t> FullScanRows(const FlatTable& t,
                                          const XyQuery& q) {
  const std::vector<double> xs = ColumnValues(t, "x");
  const std::vector<double> ys = ColumnValues(t, "y");
  std::vector<std::vector<double>> them;
  for (const XyQuery::Range& r : q.thematic) {
    them.push_back(ColumnValues(t, r.column));
  }
  std::vector<uint64_t> rows;
  for (uint64_t r = 0; r < xs.size(); ++r) {
    const Point p{xs[r], ys[r]};
    bool ok = p.x >= q.x_lo && p.x <= q.x_hi && p.y >= q.y_lo &&
              p.y <= q.y_hi;
    if (ok && q.spatial == XyQuery::Spatial::kWithin) {
      ok = GeometryContainsPoint(q.geometry, p);
    }
    if (ok && q.spatial == XyQuery::Spatial::kDWithin) {
      ok = GeometryDWithin(q.geometry, p, q.distance);
    }
    for (size_t i = 0; ok && i < them.size(); ++i) {
      ok = them[i][r] >= q.thematic[i].lo && them[i][r] <= q.thematic[i].hi;
    }
    if (ok) rows.push_back(r);
  }
  return rows;
}

/// The aggregate row AggregateSql must return over `rows`.
inline std::vector<sql::Value> ExpectedAggregate(
    const FlatTable& t, const std::vector<uint64_t>& rows) {
  std::vector<sql::Value> out{
      sql::Value::Num(static_cast<double>(rows.size()))};
  if (rows.empty()) {
    for (int i = 0; i < 4; ++i) out.push_back(sql::Value::Null());
    return out;
  }
  const std::vector<double> xs = ColumnValues(t, "x"),
                            ys = ColumnValues(t, "y"),
                            zs = ColumnValues(t, "z"),
                            in = ColumnValues(t, "intensity");
  double sum_z = 0, sum_i = 0, min_x = xs[rows[0]], max_y = ys[rows[0]];
  for (uint64_t r : rows) {
    sum_z += zs[r];
    sum_i += in[r];
    min_x = std::min(min_x, xs[r]);
    max_y = std::max(max_y, ys[r]);
  }
  out.push_back(sql::Value::Num(sum_z));
  out.push_back(sql::Value::Num(sum_i / static_cast<double>(rows.size())));
  out.push_back(sql::Value::Num(min_x));
  out.push_back(sql::Value::Num(max_y));
  return out;
}

/// The rows ProjectSql must return over `rows`.
inline std::vector<std::vector<sql::Value>> ExpectedProjection(
    const FlatTable& t, std::vector<uint64_t> rows) {
  const std::vector<double> xs = ColumnValues(t, "x"),
                            ys = ColumnValues(t, "y"),
                            zs = ColumnValues(t, "z"),
                            in = ColumnValues(t, "intensity");
  std::stable_sort(rows.begin(), rows.end(),
                   [&](uint64_t a, uint64_t b) { return zs[a] > zs[b]; });
  std::vector<std::vector<sql::Value>> out;
  for (size_t i = 0; i < rows.size() && i < 25; ++i) {
    const uint64_t r = rows[i];
    out.push_back({sql::Value::Num(xs[r]), sql::Value::Num(ys[r]),
                   sql::Value::Num(zs[r]), sql::Value::Num(in[r])});
  }
  return out;
}

inline bool SameValue(const sql::Value& a, const sql::Value& b) {
  if (a.kind != b.kind) return false;
  if (a.kind != sql::Value::Kind::kNumber) return a == b;
  return std::memcmp(&a.number, &b.number, sizeof(double)) == 0;
}

/// Bit-for-bit comparison of result rows; the message names the first
/// differing cell.
inline ::testing::AssertionResult SameRows(
    const std::vector<std::vector<sql::Value>>& got,
    const std::vector<std::vector<sql::Value>>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, oracle has " << want.size();
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width";
    }
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameValue(got[r][c], want[r][c])) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": " << got[r][c].ToString()
               << " vs oracle " << want[r][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One clause's expected answers, computed once per table.
struct XyExpected {
  std::vector<std::vector<sql::Value>> aggregate;
  std::vector<std::vector<sql::Value>> projection;
};

inline std::vector<XyExpected> ExpectAll(const FlatTable& t,
                                         const std::vector<XyQuery>& qs) {
  std::vector<XyExpected> out;
  for (const XyQuery& q : qs) {
    const std::vector<uint64_t> rows = FullScanRows(t, q);
    out.push_back({{ExpectedAggregate(t, rows)}, ExpectedProjection(t, rows)});
  }
  return out;
}

}  // namespace xytest
}  // namespace geocol

#endif  // GEOCOL_TESTS_XY_ORACLE_H_
