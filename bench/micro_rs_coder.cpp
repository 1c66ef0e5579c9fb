// Microbenchmark: the GF(256) Reed-Solomon stripe coder (code/rs.hpp)
// — the byte-plane cost the striped collectives pay for k-fault
// tolerance. Encode is what every striped send with parity pays;
// reconstruct and reassemble are the receivers' price when stripes were
// actually lost.
// Rates are bytes of *payload* per second (not stripe bytes), so the
// numbers compare directly against the link bandwidths the DES models:
// parity coding is worth it only while it runs far above the per-tree
// stream rate, and the regression gate holds that property.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "code/gf256.hpp"
#include "code/rs.hpp"
#include "coll/striped.hpp"
#include "harness/bench.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

std::vector<std::vector<std::uint8_t>> random_stripes(std::size_t m,
                                                      std::size_t width,
                                                      workload::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> data(m);
  for (auto& s : data) {
    s.resize(width);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  return data;
}

void run(const bench::Context& ctx, bench::Report& report) {
  workload::Rng rng(ctx.seed);
  constexpr std::size_t kPayload = 1 << 20;  // 1 MiB per encode

  // The planner's common shapes: (m, k) with m + k = n trees.
  struct Shape {
    std::size_t m, k;
    const char* label;
  };
  const Shape shapes[] = {{5, 1, "m5k1_xor"},   // legacy XOR stripe
                          {6, 2, "m6k2"},       // 8-cube, double parity
                          {7, 3, "m7k3"}};      // deep parity
  for (const Shape& s : shapes) {
    const std::size_t width = (kPayload + s.m - 1) / s.m;
    const code::RsCode rs(s.m, s.k);
    const auto data = random_stripes(s.m, width, rng);
    std::vector<std::vector<std::uint8_t>> parity;

    const auto encode_rate = bench::measure_rate(ctx.min_time(0.3), [&] {
      rs.encode(data, parity, width);
    });
    const double encode_bps =
        encode_rate.per_second() * static_cast<double>(kPayload);
    report.metric(std::string("rs_encode_payload_bytes_per_sec_") + s.label,
                  encode_bps);
    std::printf("encode %-8s: %8.1f MB/s payload (%zu+%zu stripes)\n",
                s.label, encode_bps / 1e6, s.m, s.k);

    // Reconstruct the worst case: k data stripes lost, all k parity
    // rows needed (one k-by-k inversion, then one addmul pass per
    // surviving stripe for each lost one). Only the lost slots are
    // emptied per iteration; the decoder never writes the survivors.
    std::vector<std::vector<std::uint8_t>> stripes = data;
    rs.encode(data, parity, width);
    for (auto& p : parity) stripes.push_back(std::move(p));
    std::vector<std::size_t> missing(s.k);
    for (std::size_t i = 0; i < s.k; ++i) missing[i] = i;
    const auto decode_rate = bench::measure_rate(ctx.min_time(0.3), [&] {
      for (const std::size_t i : missing) stripes[i].clear();
      rs.reconstruct(stripes, missing, width);
    });
    const double decode_bps =
        decode_rate.per_second() * static_cast<double>(kPayload);
    report.metric(
        std::string("rs_reconstruct_payload_bytes_per_sec_") + s.label,
        decode_bps);
    std::printf("decode %-8s: %8.1f MB/s payload (%zu data stripes lost)\n",
                s.label, decode_bps / 1e6, s.k);
  }

  // reassemble_stripes, the receivers' whole rebuild of a 1 MiB payload
  // (what the striped workload times): m7k1 loses one data stripe, m6k2
  // loses two.
  std::vector<std::uint8_t> payload(kPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const Shape lossy[] = {{7, 1, "m7k1"}, {6, 2, "m6k2"}};
  for (const Shape& s : lossy) {
    const auto stripes = coll::split_stripes(payload, s.m, s.k);
    std::vector<std::size_t> missing(s.k);
    for (std::size_t i = 0; i < s.k; ++i) missing[i] = 1 + i;
    std::vector<std::uint8_t> out;
    const auto rate = bench::measure_rate(ctx.min_time(0.3), [&] {
      out = coll::reassemble_stripes(stripes, s.m, kPayload, missing);
    });
    const double bps = rate.per_second() * static_cast<double>(kPayload);
    report.metric(std::string("reassemble_payload_bytes_per_sec_") + s.label,
                  bps);
    std::printf("reassemble %-4s: %8.1f MB/s payload (%zu data stripes "
                "lost)\n",
                s.label, bps / 1e6, s.k);
  }

  // The kernel under both: dst ^= c * src over a long row.
  std::vector<std::uint8_t> src(1 << 20), dst(1 << 20);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::uint8_t c = 2;
  const auto addmul_rate = bench::measure_rate(ctx.min_time(0.3), [&] {
    code::gf_addmul(dst.data(), src.data(), c, src.size());
    c = static_cast<std::uint8_t>(c + 1);
    if (c == 0) c = 2;
  });
  const double addmul_bps =
      addmul_rate.per_second() * static_cast<double>(src.size());
  report.metric("gf_addmul_bytes_per_sec", addmul_bps);
  std::printf("gf_addmul  : %8.1f MB/s\n", addmul_bps / 1e6);
}

const bench::Registration reg{
    {"micro_rs_coder", bench::Kind::Micro,
     "GF(256) Reed-Solomon stripe coder: encode/reconstruct/reassemble "
     "payload throughput at planner shapes, plus the addmul kernel",
     run}};

}  // namespace
