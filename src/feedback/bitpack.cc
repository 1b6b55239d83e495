#include "feedback/bitpack.h"

#include <stdexcept>

#include "common/check.h"

namespace deepcsi::feedback {

void BitWriter::write(std::uint32_t value, int bits) {
  DEEPCSI_CHECK(bits >= 1 && bits <= 16);
  DEEPCSI_CHECK_MSG(value < (1u << bits), "value does not fit bit width");
  acc_ |= value << acc_bits_;
  acc_bits_ += bits;
  while (acc_bits_ >= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
    acc_ >>= 8;
    acc_bits_ -= 8;
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (acc_bits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
    acc_ = 0;
    acc_bits_ = 0;
  }
  return std::move(bytes_);
}

std::uint32_t BitReader::read(int bits) {
  DEEPCSI_CHECK(bits >= 1 && bits <= 16);
  if (bits_read_ + static_cast<std::size_t>(bits) > bytes_.size() * 8)
    throw std::out_of_range("BitReader: read past end of report");
  std::uint32_t out = 0;
  for (int i = 0; i < bits; ++i) {
    const std::size_t bit = bits_read_ + static_cast<std::size_t>(i);
    const std::uint8_t byte = bytes_[bit / 8];
    out |= static_cast<std::uint32_t>((byte >> (bit % 8)) & 1u) << i;
  }
  bits_read_ += static_cast<std::size_t>(bits);
  return out;
}

std::size_t report_payload_bytes(int m, int nss, std::size_t num_subcarriers,
                                 const QuantConfig& cfg) {
  const std::size_t per_sc =
      num_angles(m, nss) * static_cast<std::size_t>(cfg.b_phi + cfg.b_psi);
  return (per_sc * num_subcarriers + 7) / 8;
}

namespace {

// Visit angles in the on-air interleaved order, calling
// on_phi(flat_phi_index) / on_psi(flat_psi_index) as encountered.
template <typename FPhi, typename FPsi>
void visit_interleaved(int m, int nss, FPhi&& on_phi, FPsi&& on_psi) {
  std::size_t phi_cursor = 0, psi_cursor = 0;
  const int imax = std::min(nss, m - 1);
  for (int i = 1; i <= imax; ++i) {
    for (int l = i; l <= m - 1; ++l) on_phi(phi_cursor++);
    for (int l = i + 1; l <= m; ++l) on_psi(psi_cursor++);
  }
}

}  // namespace

std::vector<std::uint8_t> pack_report(const CompressedFeedbackReport& report) {
  DEEPCSI_CHECK(report.per_subcarrier.size() == report.subcarriers.size());
  BitWriter w;
  for (const QuantizedAngles& qa : report.per_subcarrier) {
    DEEPCSI_CHECK(qa.m == report.m && qa.nss == report.nss);
    DEEPCSI_CHECK(qa.q_phi.size() == num_angles(qa.m, qa.nss));
    DEEPCSI_CHECK(qa.q_psi.size() == num_angles(qa.m, qa.nss));
    visit_interleaved(
        qa.m, qa.nss,
        [&](std::size_t p) { w.write(qa.q_phi[p], report.quant.b_phi); },
        [&](std::size_t p) { w.write(qa.q_psi[p], report.quant.b_psi); });
  }
  return w.finish();
}

CompressedFeedbackReport unpack_report(const std::vector<std::uint8_t>& bytes,
                                       int m, int nss,
                                       const std::vector<int>& subcarriers,
                                       const QuantConfig& cfg) {
  DEEPCSI_CHECK_MSG(
      bytes.size() >= report_payload_bytes(m, nss, subcarriers.size(), cfg),
      "report payload truncated");
  CompressedFeedbackReport report;
  report.quant = cfg;
  report.m = m;
  report.nss = nss;
  report.subcarriers = subcarriers;
  BitReader r(bytes);
  for (std::size_t ki = 0; ki < subcarriers.size(); ++ki) {
    QuantizedAngles qa;
    qa.m = m;
    qa.nss = nss;
    qa.q_phi.resize(num_angles(m, nss));
    qa.q_psi.resize(num_angles(m, nss));
    visit_interleaved(
        m, nss,
        [&](std::size_t p) {
          qa.q_phi[p] = static_cast<std::uint16_t>(r.read(cfg.b_phi));
        },
        [&](std::size_t p) {
          qa.q_psi[p] = static_cast<std::uint16_t>(r.read(cfg.b_psi));
        });
    report.per_subcarrier.push_back(std::move(qa));
  }
  return report;
}

CompressedFeedbackReport compress_v_series(const std::vector<CMat>& v_per_k,
                                           const std::vector<int>& subcarriers,
                                           const QuantConfig& cfg) {
  DEEPCSI_CHECK(v_per_k.size() == subcarriers.size());
  DEEPCSI_CHECK(!v_per_k.empty());
  CompressedFeedbackReport report;
  report.quant = cfg;
  report.m = static_cast<int>(v_per_k.front().rows());
  report.nss = static_cast<int>(v_per_k.front().cols());
  report.subcarriers = subcarriers;
  report.per_subcarrier.reserve(v_per_k.size());
  for (const CMat& v : v_per_k)
    report.per_subcarrier.push_back(quantize(decompose_v(v), cfg));
  return report;
}

}  // namespace deepcsi::feedback
