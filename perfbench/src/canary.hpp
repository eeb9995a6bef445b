// canary.hpp — the gatesim-capture known answer: one fixed 64-lane
// capture, independent of --seed, and the noise-free digest its traces
// had when the benchmark was written.  Every run captures it once and
// compares.  A change that alters what a noise-free trace records, on
// purpose, re-records kCanaryDigest (the run prints the digest it saw).
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

inline constexpr std::uint64_t kCanaryModulus = 0x8964a455836c15b9ull;
/// Full length, Hamming weight 32.
inline constexpr std::uint64_t kCanaryExponent = 0xc3b4593228fd6378ull;
inline constexpr std::array<std::uint64_t, 64> kCanaryBases = {
    0x152ce541f951bb33ull, 0x687a015198e887cdull, 0x357188b0ae90f216ull,
    0x1c8fab6f9188efb9ull, 0x4669f1e2e4e0dd41ull, 0x573c73e96940d97eull,
    0x60410bdb2c8058a1ull, 0x12863c13dbccfdacull, 0x0e743dfa2328bbbeull,
    0x327be98ce7e8d287ull, 0x6b8007271e8f6b99ull, 0x506459db1ed5ce72ull,
    0x18bcb63cdd1c57b6ull, 0x79aab447d444061bull, 0x4844801cf3c8a163ull,
    0x57032e4de37a0465ull, 0x524bf276f13ad42cull, 0x3cf802891dc9bf8dull,
    0x302961f8d8a3cf33ull, 0x3209876cd6693532ull, 0x74039fc1ad520727ull,
    0x2c383d781ebcde8eull, 0x50c546e71cbc08aaull, 0x508c35f0c32fa907ull,
    0x6a84ba314b30a117ull, 0x58769b968591d8eeull, 0x5951bcc31ed2e5caull,
    0x2ed977306e6cedf5ull, 0x220c765b971f3381ull, 0x6781ef852fdd6bd7ull,
    0x444ac1646d871e29ull, 0x2713a4f90e0e3e5dull, 0x19de978df3d81691ull,
    0x5fa28d135d9c09b2ull, 0x7a4cfcf770370643ull, 0x3c138a529c9b6ba3ull,
    0x3df3ce530081ade1ull, 0x2fe66bad4b95d05aull, 0x36964fa0b685e208ull,
    0x54bcdf77d26fd0d8ull, 0x5255f7a1c6fd3bb3ull, 0x34ba0fe54fd303bbull,
    0x314470abd6c1dd41ull, 0x6d568dfb54f540adull, 0x7b6912c22f0372e6ull,
    0x0340649223c2e6e2ull, 0x511d6db1ad88a656ull, 0x160157db711da930ull,
    0x447469aa6eaa4beaull, 0x7ff552bee874eba7ull, 0x55b216400108dfc1ull,
    0x3e045ea778575111ull, 0x1897330ddd0eb884ull, 0x5b571d8adee4dd49ull,
    0x495e67ff5f2201afull, 0x3a9a78559d2a668dull, 0x313403325ac2b15full,
    0x42964e1593ec6d78ull, 0x46cc6fcfae7fb85full, 0x439acc05523970c2ull,
    0x287ee3781dae0179ull, 0x2b0352cca09ca920ull, 0x2215820c1a112f10ull,
    0x66db1d275048ebf5ull,
};
inline constexpr std::uint64_t kCanaryDigest = 0x9a47673b4e28edd8ull;

}  // namespace perfbench
