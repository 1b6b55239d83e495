// Bit-level packing of the compressed beamforming report.
//
// The VHT Compressed Beamforming report packs, for each sounded sub-carrier
// in ascending order, the angles in the standard's interleaved order (for
// each i: phi_{i,i}..phi_{M-1,i} then psi_{i+1,i}..psi_{M,i}), each phi on
// b_phi bits and each psi on b_psi bits, LSB first, with the final partial
// byte zero-padded. Any Wi-Fi device in monitor mode sees exactly these
// bytes in clear text — this codec is the observer's entry point.
#pragma once

#include <cstdint>
#include <vector>

#include "feedback/quantizer.h"

namespace deepcsi::feedback {

class BitWriter {
 public:
  void write(std::uint32_t value, int bits);
  // Flushes the partial byte (zero-padded) and returns the buffer.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint32_t acc_ = 0;
  int acc_bits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  std::uint32_t read(int bits);  // throws std::out_of_range past the end

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t bits_read_ = 0;
};

// The full report: quantized angles for every sounded sub-carrier.
struct CompressedFeedbackReport {
  QuantConfig quant;
  int m = 0;
  int nss = 0;
  std::vector<int> subcarriers;              // ascending
  std::vector<QuantizedAngles> per_subcarrier;
};

// Serialized size in bytes for a report with the given geometry.
std::size_t report_payload_bytes(int m, int nss, std::size_t num_subcarriers,
                                 const QuantConfig& cfg);

std::vector<std::uint8_t> pack_report(const CompressedFeedbackReport& report);

// Inverse of pack_report; geometry and sub-carrier list must be supplied
// (on the air they come from the VHT MIMO Control field and the bandwidth).
CompressedFeedbackReport unpack_report(const std::vector<std::uint8_t>& bytes,
                                       int m, int nss,
                                       const std::vector<int>& subcarriers,
                                       const QuantConfig& cfg);

// End-to-end helper used by dataset generation and the observer:
// decompose+quantize each V_k into a report.
CompressedFeedbackReport compress_v_series(const std::vector<CMat>& v_per_k,
                                           const std::vector<int>& subcarriers,
                                           const QuantConfig& cfg);

}  // namespace deepcsi::feedback
