#include "src/substrate/aes.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/logging.h"

namespace mercurial {
namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t result = 0;
  while (b != 0) {
    if (b & 1) {
      result ^= a;
    }
    a = XTime(a);
    b >>= 1;
  }
  return result;
}

constexpr std::array<uint8_t, 256> MakeInvSbox() {
  std::array<uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i) {
    inv[kSbox[i]] = static_cast<uint8_t>(i);
  }
  return inv;
}

constexpr std::array<uint8_t, 256> kInvSbox = MakeInvSbox();

// A state column packs its four bytes little-endian: row r of column c (state[r + 4*c],
// FIPS-197's column-major layout) is bits [8r, 8r + 8) of the column word.
using RoundTables = std::array<std::array<uint32_t, 256>, 4>;

// tables[r][x] is what input byte x in row r adds to the output column of a MixColumns-style
// matrix product: x times the matrix's column r, which is `coefficients` (its column 0)
// rotated down by r rows. MixColumns' column 0 is (2, 1, 1, 3) and InvMixColumns' is
// (e, 9, d, b). With `sbox`, x passes through it first, folding SubBytes into the lookup.
constexpr RoundTables MakeRoundTables(std::array<uint8_t, 4> coefficients, const uint8_t* sbox) {
  RoundTables tables{};
  for (int x = 0; x < 256; ++x) {
    const uint8_t v = sbox != nullptr ? sbox[x] : static_cast<uint8_t>(x);
    uint32_t column = 0;
    for (int r = 0; r < 4; ++r) {
      column |= static_cast<uint32_t>(GfMul(v, coefficients[r])) << (8 * r);
    }
    for (int r = 0; r < 4; ++r) {
      tables[r][x] = std::rotl(column, 8 * r);
    }
  }
  return tables;
}

// Encryption: SubBytes then MixColumns. Decryption: InvMixColumns alone (InvSubBytes comes
// after InvShiftRows in AesDecRound, so it stays a separate gather).
constexpr RoundTables kEncTables = MakeRoundTables({0x02, 0x01, 0x01, 0x03}, kSbox);
constexpr RoundTables kDecTables = MakeRoundTables({0x0e, 0x09, 0x0d, 0x0b}, nullptr);

// ShiftRows and InvShiftRows as gathers: output byte i is input byte kShiftRows[i]
// (kInvShiftRows[i]). Row r of output column c comes from input column c + r (c - r).
constexpr uint8_t kShiftRows[kAesBlockBytes] = {0, 5, 10, 15, 4, 9, 14, 3,
                                                8, 13, 2, 7, 12, 1, 6, 11};
constexpr uint8_t kInvShiftRows[kAesBlockBytes] = {0, 13, 10, 7, 4, 1, 14, 11,
                                                   8, 5, 2, 15, 12, 9, 6, 3};

inline uint32_t LoadColumn(const AesBlock& s, int c) {
  return static_cast<uint32_t>(s[4 * c]) | static_cast<uint32_t>(s[4 * c + 1]) << 8 |
         static_cast<uint32_t>(s[4 * c + 2]) << 16 | static_cast<uint32_t>(s[4 * c + 3]) << 24;
}

inline void StoreColumn(AesBlock& s, int c, uint32_t column) {
  s[4 * c] = static_cast<uint8_t>(column);
  s[4 * c + 1] = static_cast<uint8_t>(column >> 8);
  s[4 * c + 2] = static_cast<uint8_t>(column >> 16);
  s[4 * c + 3] = static_cast<uint8_t>(column >> 24);
}

}  // namespace

uint8_t AesGfMul(uint8_t a, uint8_t b) { return GfMul(a, b); }

uint8_t AesSubByte(uint8_t value) { return kSbox[value]; }
uint8_t AesInvSubByte(uint8_t value) { return kInvSbox[value]; }

uint8_t StandardAesRcon(int round) {
  MERCURIAL_CHECK_GE(round, 1);
  MERCURIAL_CHECK_LE(round, kAesRounds);
  uint8_t rcon = 0x01;
  for (int i = 1; i < round; ++i) {
    rcon = XTime(rcon);
  }
  return rcon;
}

AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes]) {
  return ExpandAesKey(key, StandardAesRcon);
}

AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes], const AesRconFn& rcon) {
  // 44 words, column-major: word i is bytes [4*i, 4*i+4).
  uint8_t w[176];
  std::memcpy(w, key, 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &w[4 * (i - 1)], 4);
    if (i % 4 == 0) {
      // RotWord.
      const uint8_t t0 = temp[0];
      temp[0] = temp[1];
      temp[1] = temp[2];
      temp[2] = temp[3];
      temp[3] = t0;
      // SubWord.
      for (auto& b : temp) {
        b = kSbox[b];
      }
      temp[0] ^= rcon(i / 4);
    }
    for (int b = 0; b < 4; ++b) {
      w[4 * i + b] = static_cast<uint8_t>(w[4 * (i - 4) + b] ^ temp[b]);
    }
  }
  AesKeySchedule schedule;
  for (int r = 0; r <= kAesRounds; ++r) {
    std::memcpy(schedule.round_keys[r].data(), &w[16 * r], 16);
  }
  return schedule;
}

AesBlock AesEncRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock out;
  if (last) {
    for (size_t i = 0; i < kAesBlockBytes; ++i) {
      out[i] = static_cast<uint8_t>(kSbox[state[kShiftRows[i]]] ^ round_key[i]);
    }
    return out;
  }
  // Column c gathers its rows as kShiftRows does, each through SubBytes and MixColumns.
  const auto& t = kEncTables;
  StoreColumn(out, 0, t[0][state[0]] ^ t[1][state[5]] ^ t[2][state[10]] ^ t[3][state[15]] ^
                          LoadColumn(round_key, 0));
  StoreColumn(out, 1, t[0][state[4]] ^ t[1][state[9]] ^ t[2][state[14]] ^ t[3][state[3]] ^
                          LoadColumn(round_key, 1));
  StoreColumn(out, 2, t[0][state[8]] ^ t[1][state[13]] ^ t[2][state[2]] ^ t[3][state[7]] ^
                          LoadColumn(round_key, 2));
  StoreColumn(out, 3, t[0][state[12]] ^ t[1][state[1]] ^ t[2][state[6]] ^ t[3][state[11]] ^
                          LoadColumn(round_key, 3));
  return out;
}

AesBlock AesDecRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock mixed;
  for (int c = 0; c < 4; ++c) {
    const uint32_t column = LoadColumn(state, c) ^ LoadColumn(round_key, c);
    StoreColumn(mixed, c,
                last ? column
                     : kDecTables[0][column & 0xff] ^ kDecTables[1][(column >> 8) & 0xff] ^
                           kDecTables[2][(column >> 16) & 0xff] ^ kDecTables[3][column >> 24]);
  }
  AesBlock out;
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    out[i] = kInvSbox[mixed[kInvShiftRows[i]]];
  }
  return out;
}

AesBlock AesEncryptBlock(const AesKeySchedule& schedule, const AesBlock& plaintext) {
  AesBlock s = plaintext;
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= schedule.round_keys[0][i];
  }
  for (int r = 1; r <= kAesRounds; ++r) {
    s = AesEncRound(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  return s;
}

AesBlock AesDecryptBlock(const AesKeySchedule& schedule, const AesBlock& ciphertext) {
  AesBlock s = ciphertext;
  for (int r = kAesRounds; r >= 1; --r) {
    s = AesDecRound(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= schedule.round_keys[0][i];
  }
  return s;
}

AesBlock AesCtrCounterBlock(uint64_t nonce, uint64_t counter) {
  AesBlock block;
  for (int i = 0; i < 8; ++i) {
    block[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
    block[8 + i] = static_cast<uint8_t>(counter >> (56 - 8 * i));
  }
  return block;
}

std::vector<uint8_t> AesCtrTransform(const AesKeySchedule& schedule, uint64_t nonce,
                                     const std::vector<uint8_t>& data) {
  std::vector<uint8_t> out(data.size());
  uint64_t counter = 0;
  size_t offset = 0;
  while (offset < data.size()) {
    const AesBlock keystream = AesEncryptBlock(schedule, AesCtrCounterBlock(nonce, counter));
    const size_t chunk = std::min(kAesBlockBytes, data.size() - offset);
    for (size_t i = 0; i < chunk; ++i) {
      out[offset + i] = data[offset + i] ^ keystream[i];
    }
    offset += chunk;
    ++counter;
  }
  return out;
}

}  // namespace mercurial
