#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "server/client.h"
#include "sql/executor.h"

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;
using geocol::server::Client;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

geocol::Result<Client> Connect(int port, double retry_s) {
  Client::Options opts;
  opts.port = port;
  opts.connect_retry_ms = static_cast<int>(retry_s * 1000);
  return Client::Connect(opts);
}

/// One request on `client`: "" when the reply carries the expected
/// digest, else why it failed. A transport failure closes the client.
std::string Send(Client* client, const Statement& st) {
  auto outcome = client->Query(st.sql);
  if (!outcome.ok()) {
    client->Close();
    return "transport: " + outcome.status().ToString();
  }
  if (!outcome->ok) {
    return std::string("refused [") +
           geocol::server::ErrorCodeName(outcome->error.code) +
           "]: " + outcome->error.ToStatus().ToString();
  }
  uint32_t got = geocol::sql::ResultSetDigest(outcome->result);
  if (got != st.expected) {
    return "digest " + std::to_string(got) + " != oracle " +
           std::to_string(st.expected);
  }
  return "";
}

/// Per-thread tally merged under a lock at thread end.
struct SharedTally {
  std::mutex mu;
  Tally tally;
  void Merge(const Tally& t) {
    std::lock_guard<std::mutex> lock(mu);
    tally.Add(t);
  }
};

void Record(Tally* t, const Statement& st, const std::string& failure) {
  ++t->attempted;
  if (failure.empty()) {
    ++t->succeeded;
    return;
  }
  ++t->failed;
  if (t->first_failures.size() < 5) {
    t->first_failures.push_back(failure + " :: " + st.sql);
  }
}

}  // namespace

void Tally::Add(const Tally& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  failed += o.failed;
  for (const std::string& f : o.first_failures) {
    if (first_failures.size() < 5) first_failures.push_back(f);
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

ClosedLoopResult RunClosedLoop(int port, const std::vector<Statement>& pool,
                               size_t* next_index, int connections,
                               double seconds) {
  ClosedLoopResult result;
  SharedTally shared;
  std::mutex lat_mu;
  std::atomic<size_t> next{*next_index};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      Tally local;
      std::vector<double> lat;
      std::vector<Clock::time_point> done;
      auto client = Connect(port, 2.0);
      while (client.ok() && Clock::now() < deadline) {
        const size_t i = next.fetch_add(1);
        if (i >= pool.size()) break;
        if (!client->connected()) client = Connect(port, 2.0);
        if (!client.ok()) break;
        const auto t0 = Clock::now();
        std::string failure = Send(&*client, pool[i]);
        if (failure.empty()) {
          done.push_back(Clock::now());
          lat.push_back(MsBetween(t0, done.back()));
        }
        Record(&local, pool[i], failure);
      }
      if (!client.ok()) {
        Statement none;
        Record(&local, none, "transport: " + client.status().ToString());
      }
      shared.Merge(local);
      std::lock_guard<std::mutex> lock(lat_mu);
      result.latencies_ms.insert(result.latencies_ms.end(), lat.begin(),
                                 lat.end());
      result.done.insert(result.done.end(), done.begin(), done.end());
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  *next_index = std::min(next.load(), pool.size());
  result.pool_exhausted = *next_index >= pool.size();
  result.tally = shared.tally;
  return result;
}

Tally RunSequential(int port, const std::vector<Statement>& statements,
                    std::vector<double>* latencies_ms) {
  Tally tally;
  auto client = Connect(port, 2.0);
  for (const Statement& st : statements) {
    if (!client.ok() || !client->connected()) client = Connect(port, 2.0);
    std::string failure = "transport: cannot connect";
    const auto t0 = Clock::now();
    if (client.ok()) failure = Send(&*client, st);
    if (latencies_ms != nullptr) {
      latencies_ms->push_back(failure.empty() ? MsBetween(t0, Clock::now()) : 0.0);
    }
    Record(&tally, st, failure);
  }
  return tally;
}

bool ProbeOnce(int port, const std::string& sql, double retry_s,
               uint32_t* digest, std::string* error) {
  auto client = Connect(port, retry_s);
  if (!client.ok()) {
    *error = client.status().ToString();
    return false;
  }
  auto outcome = client->Query(sql);
  if (!outcome.ok()) {
    *error = outcome.status().ToString();
    return false;
  }
  if (!outcome->ok) {
    *error = outcome->error.ToStatus().ToString();
    return false;
  }
  *digest = geocol::sql::ResultSetDigest(outcome->result);
  return true;
}

}  // namespace e2ebench
