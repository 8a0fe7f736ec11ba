// Tests for src/substrate: golden AES, checksums, LZ, matrix kernels.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/substrate/aes.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"
#include "src/substrate/matrix.h"

namespace mercurial {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// --- AES ---------------------------------------------------------------------------------

TEST(AesTest, Fips197AppendixBVector) {
  // FIPS-197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
  // plaintext 3243f6a8885a308d313198a2e0370734 -> ciphertext 3925841d02dc09fbdc118597196a0b32.
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesBlock plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                              0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const AesBlock expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                             0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_EQ(AesEncryptBlock(schedule, plaintext), expected);
  EXPECT_EQ(AesDecryptBlock(schedule, expected), plaintext);
}

TEST(AesTest, Fips197AppendixCVector) {
  // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233445566778899aabbccddeeff.
  uint8_t key[16];
  AesBlock plaintext;
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<uint8_t>(i);
    plaintext[i] = static_cast<uint8_t>(0x11 * i);
  }
  const AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_EQ(AesEncryptBlock(schedule, plaintext), expected);
  EXPECT_EQ(AesDecryptBlock(schedule, expected), plaintext);
}

TEST(AesTest, KeyExpansionFirstAndLastRoundKeys) {
  // FIPS-197 Appendix A key expansion for 2b7e1516...: w[40..43] = d014f9a8 c9ee2589 e13f0cc8
  // b6630ca6.
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_TRUE(std::memcmp(schedule.round_keys[0].data(), key, 16) == 0);
  const AesBlock last = {0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89,
                         0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63, 0x0c, 0xa6};
  EXPECT_EQ(schedule.round_keys[10], last);
}

TEST(AesTest, RoundTripProperty) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    uint8_t key[16];
    rng.FillBytes(key, 16);
    AesBlock block;
    rng.FillBytes(block.data(), block.size());
    const AesKeySchedule schedule = ExpandAesKey(key);
    EXPECT_EQ(AesDecryptBlock(schedule, AesEncryptBlock(schedule, block)), block);
  }
}

TEST(AesTest, DecRoundInvertsEncRound) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    AesBlock state;
    AesBlock round_key;
    rng.FillBytes(state.data(), state.size());
    rng.FillBytes(round_key.data(), round_key.size());
    for (bool last : {false, true}) {
      EXPECT_EQ(AesDecRound(AesEncRound(state, round_key, last), round_key, last), state);
    }
  }
}

TEST(AesTest, SboxIsABijectionAndInverseMatches) {
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 256; ++i) {
    const uint8_t s = AesSubByte(static_cast<uint8_t>(i));
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
    EXPECT_EQ(AesInvSubByte(s), i);
  }
}

TEST(AesTest, KnownSboxEntries) {
  EXPECT_EQ(AesSubByte(0x00), 0x63);
  EXPECT_EQ(AesSubByte(0x53), 0xed);
  EXPECT_EQ(AesSubByte(0xff), 0x16);
}

TEST(AesTest, GfMulProperties) {
  // Identity and known products from FIPS-197 §4.2: {57}*{83} = {c1}, {57}*{13} = {fe}.
  EXPECT_EQ(AesGfMul(0x57, 0x01), 0x57);
  EXPECT_EQ(AesGfMul(0x57, 0x83), 0xc1);
  EXPECT_EQ(AesGfMul(0x57, 0x13), 0xfe);
  // Commutativity.
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    EXPECT_EQ(AesGfMul(a, b), AesGfMul(b, a));
  }
}

TEST(AesTest, StandardRconSequence) {
  const uint8_t expected[10] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36};
  for (int r = 1; r <= 10; ++r) {
    EXPECT_EQ(StandardAesRcon(r), expected[r - 1]) << "round " << r;
  }
}

TEST(AesTest, CorruptedRconChangesScheduleDeterministically) {
  uint8_t key[16] = {};
  const AesKeySchedule golden = ExpandAesKey(key);
  const AesRconFn bad_rcon = [](int round) {
    return static_cast<uint8_t>(StandardAesRcon(round) ^ 0x10);
  };
  const AesKeySchedule bad1 = ExpandAesKey(key, bad_rcon);
  const AesKeySchedule bad2 = ExpandAesKey(key, bad_rcon);
  EXPECT_NE(bad1.round_keys[10], golden.round_keys[10]);
  EXPECT_EQ(bad1.round_keys[10], bad2.round_keys[10]);
  // Enc/dec with the same wrong schedule is still the identity (self-inverting).
  AesBlock block = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(AesDecryptBlock(bad1, AesEncryptBlock(bad1, block)), block);
  // But the ciphertext differs from spec.
  EXPECT_NE(AesEncryptBlock(bad1, block), AesEncryptBlock(golden, block));
}

TEST(AesTest, CtrRoundTripAndSymmetry) {
  Rng rng(4);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  const AesKeySchedule schedule = ExpandAesKey(key);
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    std::vector<uint8_t> data(n);
    rng.FillBytes(data.data(), n);
    const std::vector<uint8_t> ct = AesCtrTransform(schedule, 99, data);
    EXPECT_EQ(ct.size(), n);
    EXPECT_EQ(AesCtrTransform(schedule, 99, ct), data);
    if (n >= 16) {
      EXPECT_NE(ct, data);  // keystream actually applied
    }
  }
}

TEST(AesTest, CtrNonceSeparation) {
  uint8_t key[16] = {1};
  const AesKeySchedule schedule = ExpandAesKey(key);
  const std::vector<uint8_t> data(64, 0xAA);
  EXPECT_NE(AesCtrTransform(schedule, 1, data), AesCtrTransform(schedule, 2, data));
}

// Byte-wise FIPS-197 round, kept here as the oracle for the table-driven AesEncRound and
// AesDecRound (state[r + 4*c], column-major).
uint8_t OracleXTime(uint8_t x) { return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0)); }

AesBlock OracleEncRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock s;
  for (int r = 0; r < 4; ++r) {  // SubBytes and ShiftRows
    for (int c = 0; c < 4; ++c) {
      s[r + 4 * c] = AesSubByte(state[r + 4 * ((c + r) % 4)]);
    }
  }
  if (!last) {  // MixColumns
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = &s[4 * c];
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<uint8_t>(OracleXTime(a0) ^ OracleXTime(a1) ^ a1 ^ a2 ^ a3);
      col[1] = static_cast<uint8_t>(a0 ^ OracleXTime(a1) ^ OracleXTime(a2) ^ a2 ^ a3);
      col[2] = static_cast<uint8_t>(a0 ^ a1 ^ OracleXTime(a2) ^ OracleXTime(a3) ^ a3);
      col[3] = static_cast<uint8_t>(OracleXTime(a0) ^ a0 ^ a1 ^ a2 ^ OracleXTime(a3));
    }
  }
  for (size_t i = 0; i < kAesBlockBytes; ++i) {  // AddRoundKey
    s[i] ^= round_key[i];
  }
  return s;
}

AesBlock OracleDecRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock s = state;
  for (size_t i = 0; i < kAesBlockBytes; ++i) {  // AddRoundKey
    s[i] ^= round_key[i];
  }
  if (!last) {  // InvMixColumns
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = &s[4 * c];
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = AesGfMul(a0, 0x0e) ^ AesGfMul(a1, 0x0b) ^ AesGfMul(a2, 0x0d) ^ AesGfMul(a3, 0x09);
      col[1] = AesGfMul(a0, 0x09) ^ AesGfMul(a1, 0x0e) ^ AesGfMul(a2, 0x0b) ^ AesGfMul(a3, 0x0d);
      col[2] = AesGfMul(a0, 0x0d) ^ AesGfMul(a1, 0x09) ^ AesGfMul(a2, 0x0e) ^ AesGfMul(a3, 0x0b);
      col[3] = AesGfMul(a0, 0x0b) ^ AesGfMul(a1, 0x0d) ^ AesGfMul(a2, 0x09) ^ AesGfMul(a3, 0x0e);
    }
  }
  AesBlock out;
  for (int r = 0; r < 4; ++r) {  // InvShiftRows and InvSubBytes
    for (int c = 0; c < 4; ++c) {
      out[r + 4 * ((c + r) % 4)] = AesInvSubByte(s[r + 4 * c]);
    }
  }
  return out;
}

TEST(AesTest, TableRoundsMatchByteWiseOracleOnRandomInputs) {
  Rng rng(11);
  for (int trial = 0; trial < 10000; ++trial) {
    AesBlock state;
    AesBlock round_key;
    rng.FillBytes(state.data(), state.size());
    rng.FillBytes(round_key.data(), round_key.size());
    const bool last = rng.Bernoulli(0.5);
    ASSERT_EQ(AesEncRound(state, round_key, last), OracleEncRound(state, round_key, last))
        << "trial " << trial;
    ASSERT_EQ(AesDecRound(state, round_key, last), OracleDecRound(state, round_key, last))
        << "trial " << trial;
  }
}

TEST(AesTest, TableRoundsMatchByteWiseOracleOnEverySingleByteState) {
  Rng rng(12);
  AesBlock round_key;
  rng.FillBytes(round_key.data(), round_key.size());
  for (size_t position = 0; position < kAesBlockBytes; ++position) {
    for (int value = 0; value < 256; ++value) {
      AesBlock state{};
      state[position] = static_cast<uint8_t>(value);
      for (bool last : {false, true}) {
        ASSERT_EQ(AesEncRound(state, round_key, last), OracleEncRound(state, round_key, last))
            << "position " << position << " value " << value << " last " << last;
        ASSERT_EQ(AesDecRound(state, round_key, last), OracleDecRound(state, round_key, last))
            << "position " << position << " value " << value << " last " << last;
      }
    }
  }
}

TEST(AesTest, CtrCounterBlockIsBigEndianNonceThenCounter) {
  const AesBlock expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x2a};
  EXPECT_EQ(AesCtrCounterBlock(0x0102030405060708ull, 0x12a), expected);
}

// --- Checksums ----------------------------------------------------------------------------

TEST(ChecksumTest, Crc32KnownVector) {
  const auto data = Bytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(ChecksumTest, Crc32EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(ChecksumTest, Crc32IncrementalMatchesOneShot) {
  const auto data = Bytes("the quick brown fox jumps over the lazy dog");
  uint32_t crc = Crc32Init();
  for (uint8_t b : data) {
    crc = Crc32Update(crc, b);
  }
  EXPECT_EQ(Crc32Final(crc), Crc32(data));
}

TEST(ChecksumTest, Crc32DetectsSingleBitFlip) {
  Rng rng(5);
  std::vector<uint8_t> data(256);
  rng.FillBytes(data.data(), data.size());
  const uint32_t original = Crc32(data);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> mutated = data;
    const size_t bit = rng.UniformInt(0, data.size() * 8 - 1);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(mutated), original);
  }
}

TEST(ChecksumTest, Crc64KnownVector) {
  const auto data = Bytes("123456789");
  // CRC-64/XZ (reflected ECMA-182, init/xorout all-ones).
  EXPECT_EQ(Crc64(data.data(), data.size()), 0x995DC9BBDF1939FAull);
}

TEST(ChecksumTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const auto a = Bytes("a");
  EXPECT_EQ(Fnv1a64(a.data(), 1), 0xaf63dc4c8601ec8cull);
}

TEST(ChecksumTest, ContentHashDiscriminates) {
  const auto a = Bytes("hello world");
  auto b = Bytes("hello worle");
  EXPECT_NE(ContentHash64(a.data(), a.size()), ContentHash64(b.data(), b.size()));
  EXPECT_EQ(ContentHash64(a.data(), a.size()), ContentHash64(a.data(), a.size()));
  // Length-sensitivity.
  EXPECT_NE(ContentHash64(a.data(), a.size()), ContentHash64(a.data(), a.size() - 1));
}

TEST(ChecksumTest, MultisetDigestIsOrderInvariant) {
  std::vector<uint64_t> items{5, 1, 9, 9, 3};
  std::vector<uint64_t> shuffled{9, 3, 5, 9, 1};
  EXPECT_EQ(MultisetDigest(items.data(), items.size()),
            MultisetDigest(shuffled.data(), shuffled.size()));
  std::vector<uint64_t> different{9, 3, 5, 9, 2};
  EXPECT_NE(MultisetDigest(items.data(), items.size()),
            MultisetDigest(different.data(), different.size()));
}

// --- LZ -----------------------------------------------------------------------------------

class LzRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LzRoundTripTest, RandomData) {
  Rng rng(100 + GetParam());
  std::vector<uint8_t> data(GetParam());
  rng.FillBytes(data.data(), data.size());
  const auto compressed = LzCompress(data);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
}

TEST_P(LzRoundTripTest, RepetitiveData) {
  std::vector<uint8_t> data;
  const std::string pattern = "abcabcabcXYZ";
  while (data.size() < GetParam()) {
    data.insert(data.end(), pattern.begin(), pattern.end());
  }
  data.resize(GetParam());
  const auto compressed = LzCompress(data);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
  if (GetParam() >= 256) {
    EXPECT_LT(compressed.size(), data.size() / 2) << "repetitive data should compress well";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzRoundTripTest,
                         ::testing::Values(0, 1, 3, 4, 5, 16, 64, 127, 128, 129, 255, 1024,
                                           4096, 65536));

TEST(LzTest, RunLengthEncodingViaOverlap) {
  std::vector<uint8_t> data(1000, 0x42);  // a single repeated byte
  const auto compressed = LzCompress(data);
  EXPECT_LT(compressed.size(), 40u);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzTest, DecompressRejectsTruncatedLiteralRun) {
  std::vector<uint8_t> bad{10, 'a', 'b'};  // promises 11 literals, provides 2
  const auto result = LzDecompress(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(LzTest, DecompressRejectsTruncatedMatchToken) {
  std::vector<uint8_t> bad{0x80};  // match token without offset bytes
  EXPECT_FALSE(LzDecompress(bad).ok());
}

TEST(LzTest, DecompressRejectsBadOffset) {
  // Literal 'a', then a match reaching back 5 bytes into 1 byte of history.
  std::vector<uint8_t> bad{0x00, 'a', 0x80, 0x05, 0x00};
  const auto result = LzDecompress(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(LzTest, DecompressRejectsZeroOffset) {
  std::vector<uint8_t> bad{0x00, 'a', 0x80, 0x00, 0x00};
  EXPECT_FALSE(LzDecompress(bad).ok());
}

TEST(LzTest, EmptyInput) {
  const auto compressed = LzCompress({});
  EXPECT_TRUE(compressed.empty());
  const auto decompressed = LzDecompress({});
  ASSERT_TRUE(decompressed.ok());
  EXPECT_TRUE(decompressed->empty());
}

// --- Matrix -------------------------------------------------------------------------------

TEST(MatrixTest, IdentityMultiply) {
  Rng rng(6);
  Matrix a(5, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      a.at(i, j) = rng.NextDouble();
    }
  }
  const Matrix product = Multiply(a, Matrix::Identity(5));
  EXPECT_DOUBLE_EQ(product.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, KnownProduct) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;
  b.at(0, 1) = 8;
  b.at(1, 0) = 9;
  b.at(1, 1) = 10;
  b.at(2, 0) = 11;
  b.at(2, 1) = 12;
  const Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, LuReconstructsPivotedInput) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 4u, 8u, 16u}) {
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        a.at(i, j) = rng.NextDouble() * 2.0 - 1.0;
      }
      a.at(i, i) += 2.0;  // keep it comfortably nonsingular
    }
    const auto factors = LuFactorize(a);
    ASSERT_TRUE(factors.ok()) << "n=" << n;
    const Matrix reconstructed = LuReconstruct(*factors);
    const Matrix pivoted = PermuteRows(a, factors->pivots);
    EXPECT_LT(reconstructed.MaxAbsDiff(pivoted), 1e-9) << "n=" << n;
  }
}

TEST(MatrixTest, LuLowerIsUnitTriangularUpperIsTriangular) {
  Rng rng(8);
  Matrix a(6, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      a.at(i, j) = rng.NextDouble() + (i == j ? 3.0 : 0.0);
    }
  }
  const auto factors = LuFactorize(a);
  ASSERT_TRUE(factors.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(factors->lower.at(i, i), 1.0);
    for (size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(factors->lower.at(i, j), 0.0);
    }
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(factors->upper.at(i, j), 0.0, 1e-12);
    }
  }
}

TEST(MatrixTest, LuRejectsSingular) {
  Matrix a(3, 3);  // all zeros
  EXPECT_FALSE(LuFactorize(a).ok());
  // Rank-1 matrix.
  Matrix b(2, 2);
  b.at(0, 0) = 1;
  b.at(0, 1) = 2;
  b.at(1, 0) = 2;
  b.at(1, 1) = 4;
  EXPECT_FALSE(LuFactorize(b).ok());
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a(2, 2);
  a.at(0, 0) = 3;
  a.at(1, 1) = 4;
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

}  // namespace
}  // namespace mercurial
