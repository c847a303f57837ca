// Unit tests for the util substrate: Status/Result, BitVector, Rng,
// binary I/O, temp dirs, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/binary_io.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geocol {
namespace {

// ---------------- Status / Result ----------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

Status UseParse(int v, int* out) {
  GEOCOL_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseParse(0, &out).ok());
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(ParsePositive(3).ValueOr(-7), 6);
  EXPECT_EQ(ParsePositive(-3).ValueOr(-7), -7);
}

// ---------------- BitVector ----------------

TEST(BitVectorTest, BasicSetGetClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Clear(64);
  EXPECT_FALSE(bv.Get(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVectorTest, InitialValueTrueMasksTail) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
}

TEST(BitVectorTest, SetRangeWithinOneWord) {
  BitVector bv(64);
  bv.SetRange(3, 9);
  EXPECT_EQ(bv.Count(), 6u);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(bv.Get(i), i >= 3 && i < 9);
}

TEST(BitVectorTest, SetRangeAcrossWords) {
  BitVector bv(256);
  bv.SetRange(60, 200);
  EXPECT_EQ(bv.Count(), 140u);
  EXPECT_FALSE(bv.Get(59));
  EXPECT_TRUE(bv.Get(60));
  EXPECT_TRUE(bv.Get(199));
  EXPECT_FALSE(bv.Get(200));
}

TEST(BitVectorTest, SetRangeEmptyIsNoop) {
  BitVector bv(64);
  bv.SetRange(10, 10);
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, FindNext) {
  BitVector bv(200);
  bv.Set(5);
  bv.Set(130);
  EXPECT_EQ(bv.FindNext(0), 5u);
  EXPECT_EQ(bv.FindNext(5), 5u);
  EXPECT_EQ(bv.FindNext(6), 130u);
  EXPECT_EQ(bv.FindNext(131), 200u);  // size() when no more bits
}

TEST(BitVectorTest, FindNextIterationVisitsAllSetBits) {
  BitVector bv(1000);
  std::set<size_t> expected = {0, 1, 63, 64, 65, 511, 999};
  for (size_t i : expected) bv.Set(i);
  std::set<size_t> seen;
  for (size_t i = bv.FindNext(0); i < bv.size(); i = bv.FindNext(i + 1)) {
    seen.insert(i);
  }
  EXPECT_EQ(seen, expected);
}

TEST(BitVectorTest, AndOrNot) {
  BitVector a(100), b(100);
  a.SetRange(0, 50);
  b.SetRange(25, 75);
  BitVector a_and = a;
  a_and.And(b);
  EXPECT_EQ(a_and.Count(), 25u);
  BitVector a_or = a;
  a_or.Or(b);
  EXPECT_EQ(a_or.Count(), 75u);
  BitVector a_not_b = a;
  a_not_b.AndNot(b);
  EXPECT_EQ(a_not_b.Count(), 25u);
  EXPECT_TRUE(a_not_b.Get(24));
  EXPECT_FALSE(a_not_b.Get(25));
  BitVector n = a;
  n.Not();
  EXPECT_EQ(n.Count(), 50u);
  EXPECT_FALSE(n.Get(0));
  EXPECT_TRUE(n.Get(99));
}

TEST(BitVectorTest, CollectSetBits) {
  BitVector bv(70);
  bv.Set(2);
  bv.Set(69);
  std::vector<uint64_t> out;
  bv.CollectSetBits(&out);
  EXPECT_EQ(out, (std::vector<uint64_t>{2, 69}));
}

TEST(BitVectorTest, SetAllClearAll) {
  BitVector bv(130);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 130u);
  bv.ClearAll();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, EqualityAndResize) {
  BitVector a(10), b(10);
  a.Set(3);
  EXPECT_FALSE(a == b);
  b.Set(3);
  EXPECT_TRUE(a == b);
  a.Resize(20);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_EQ(a.Count(), 0u);  // Resize reinitialises
}

// ---------------- Rng ----------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// ---------------- binary I/O ----------------

TEST(BinaryIoTest, ScalarRoundTrip) {
  TempDir tmp;
  std::string path = tmp.File("scalars.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.WriteScalar<uint32_t>(0xDEADBEEF).ok());
    ASSERT_TRUE(w.WriteScalar<double>(3.5).ok());
    ASSERT_TRUE(w.WriteString("hello").ok());
    EXPECT_EQ(w.bytes_written(), 4u + 8u + 4u + 5u);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  uint32_t u = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.ReadScalar(&u).ok());
  ASSERT_TRUE(r.ReadScalar(&d).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u, 0xDEADBEEF);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
}

TEST(BinaryIoTest, ShortReadIsCorruption) {
  TempDir tmp;
  std::string path = tmp.File("short.bin");
  ASSERT_TRUE(WriteFileBytes(path, "ab", 2).ok());
  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  uint64_t v = 0;
  Status st = r.ReadScalar(&v);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  BinaryReader r;
  Status st = r.Open("/nonexistent/definitely/not/here.bin");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(BinaryIoTest, StringLengthLimitGuardsCorruptInput) {
  TempDir tmp;
  std::string path = tmp.File("bigstr.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.WriteScalar<uint32_t>(0x7FFFFFFF).ok());  // absurd length
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, VectorRoundTripAndFileSize) {
  TempDir tmp;
  std::string path = tmp.File("vec.bin");
  std::vector<int32_t> vals = {1, -2, 3, -4};
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.WriteVector(vals).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 16u);
  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(r.ReadVector(&back, 4).ok());
  EXPECT_EQ(back, vals);
}

TEST(BinaryIoTest, SeekSupportsRandomAccess) {
  TempDir tmp;
  std::string path = tmp.File("seek.bin");
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(WriteFileBytes(path, data.data(), data.size()).ok());
  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  ASSERT_TRUE(r.Seek(42).ok());
  uint8_t b = 0;
  ASSERT_TRUE(r.ReadScalar(&b).ok());
  EXPECT_EQ(b, 42);
}

// ---------------- TempDir / ListFiles ----------------

TEST(TempDirTest, CreatesAndRemoves) {
  std::string path;
  {
    TempDir tmp("uttest");
    path = tmp.path();
    EXPECT_TRUE(PathExists(path));
    ASSERT_TRUE(WriteFileBytes(tmp.File("a.txt"), "x", 1).ok());
  }
  EXPECT_FALSE(PathExists(path));
}

TEST(TempDirTest, ListFilesFiltersBySuffix) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("b.las"), "x", 1).ok());
  ASSERT_TRUE(WriteFileBytes(tmp.File("a.las"), "x", 1).ok());
  ASSERT_TRUE(WriteFileBytes(tmp.File("c.laz"), "x", 1).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(tmp.path(), ".las", &files).ok());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_LT(files[0], files[1]);  // sorted
}

// ---------------- ThreadPool ----------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsFine) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  pool.WaitIdle();
}

TEST(ThreadPoolTest, SingleIndexRunsOnCaller) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.ParallelFor(1, [&](size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);
}

TEST(ThreadPoolTest, SubmitIsReentrantFromWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerTask) {
  // A ParallelFor issued from inside a worker task must complete even when
  // every worker is busy: the issuing thread claims indices itself.
  ThreadPool pool(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t o) {
    pool.ParallelFor(kInner, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  // Several external threads drive independent loops through one pool;
  // each call tracks its own completion, so no loop observes another's.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr size_t kIters = 500;
  std::vector<std::atomic<int>> hits(kCallers * kIters);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kIters, [&hits, c](size_t i) {
        hits[c * kIters + i].fetch_add(1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForBalancesUnevenWork) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(100, [&](size_t i) {
    // Quadratic skew: a static partition would leave one thread with most
    // of the work; dynamic claiming must still visit every index once.
    volatile uint64_t sink = 0;
    for (size_t k = 0; k < i * i; ++k) sink += k;
    total.fetch_add(i + 1);
  });
  EXPECT_EQ(total.load(), 5050u);
}

// ---------------- Timer ----------------

TEST(TimerTest, MonotonicNonNegative) {
  Timer t;
  EXPECT_GE(t.ElapsedNanos(), 0);
  AccumulatingTimer acc;
  acc.Start();
  acc.Stop();
  acc.Start();
  acc.Stop();
  EXPECT_GE(acc.TotalNanos(), 0);
  acc.Reset();
  EXPECT_EQ(acc.TotalNanos(), 0);
}

}  // namespace
}  // namespace geocol
