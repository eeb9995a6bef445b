// test_analysis — the static-analysis layer: taint lattice transfer rules
// on micro-netlists, structural lint rules on deliberately defective
// graphs, lint-cleanliness + taint shape of every generated circuit
// family, the 64-lane differential soundness crosscheck, and functional
// verification of the gate-level exponentiator (plain and masked) against
// the software Montgomery flow.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "analysis/crosscheck.hpp"
#include "analysis/lint.hpp"
#include "analysis/taint.hpp"
#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "core/netlist_gen.hpp"
#include "rtl/batch_sim.hpp"
#include "rtl/components.hpp"
#include "rtl/netlist.hpp"
#include "testutil_netlist.hpp"

namespace mont {
namespace {

using analysis::AnalyzeTaint;
using analysis::CrosscheckOptions;
using analysis::CrosscheckResult;
using analysis::LintReport;
using analysis::LintRule;
using analysis::RunDifferentialCrosscheck;
using analysis::RunLint;
using analysis::TaintLabel;
using analysis::TaintReport;
using bignum::BigUInt;
using bignum::BitSerialMontgomery;
using rtl::kNoNet;
using rtl::NetId;
using rtl::Netlist;

bool HasFinding(const std::vector<analysis::LintFinding>& findings,
                LintRule rule, NetId net) {
  for (const auto& f : findings) {
    if (f.rule == rule && f.net == net) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Taint lattice: transfer rules on micro-netlists
// ---------------------------------------------------------------------------

TEST(TaintLattice, XorWithFreshRandomnessBlinds) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId r = nl.AddInput("r");
  nl.MarkSecret(s);
  nl.MarkRandom(r, 0);
  const NetId share = nl.Xor(s, r);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(s), TaintLabel::kSecret);
  EXPECT_EQ(t.LabelOf(r), TaintLabel::kRandom);
  EXPECT_EQ(t.LabelOf(share), TaintLabel::kBlinded);
}

TEST(TaintLattice, XorWithSameMaskUnblinds) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId r = nl.AddInput("r");
  nl.MarkSecret(s);
  nl.MarkRandom(r, 0);
  const NetId share = nl.Xor(s, r);
  // share XOR r == s: the mask cancels, so the label must collapse back.
  const NetId unmasked = nl.Xor(share, r);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(unmasked), TaintLabel::kSecret);
}

TEST(TaintLattice, XorWithSecondFreshMaskStaysBlinded) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId r0 = nl.AddInput("r0");
  const NetId r1 = nl.AddInput("r1");
  nl.MarkSecret(s);
  nl.MarkRandom(r0, 0);
  nl.MarkRandom(r1, 1);
  const NetId remasked = nl.Xor(nl.Xor(s, r0), r1);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(remasked), TaintLabel::kBlinded);
}

TEST(TaintLattice, NonlinearGateRespectsMaskDisjointness) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId r0 = nl.AddInput("r0");
  const NetId r1 = nl.AddInput("r1");
  const NetId pub = nl.AddInput("pub");
  nl.MarkSecret(s);
  nl.MarkRandom(r0, 0);
  nl.MarkRandom(r1, 1);
  const NetId share = nl.Xor(s, r0);  // Blinded{0}
  // AND against randomness of the blinding group couples the mask with the
  // value ((s^r)&r leaks s in the marginal); a fresh group does not.
  const NetId overlap = nl.And(share, r0);
  const NetId fresh = nl.And(share, r1);
  const NetId with_pub = nl.And(share, pub);
  const NetId with_secret = nl.And(pub, s);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(overlap), TaintLabel::kSecret);
  EXPECT_EQ(t.LabelOf(fresh), TaintLabel::kBlinded);
  EXPECT_EQ(t.LabelOf(with_pub), TaintLabel::kBlinded);
  EXPECT_EQ(t.LabelOf(with_secret), TaintLabel::kSecret);
}

TEST(TaintLattice, BlindedSharesWithOverlappingMasksUnblind) {
  Netlist nl;
  const NetId s0 = nl.AddInput("s0");
  const NetId s1 = nl.AddInput("s1");
  const NetId r = nl.AddInput("r");
  nl.MarkSecret(s0);
  nl.MarkSecret(s1);
  nl.MarkRandom(r, 0);
  const NetId a = nl.Xor(s0, r);
  const NetId b = nl.Xor(s1, r);
  // a XOR b == s0 XOR s1: both masks are the same randomness and cancel.
  const NetId combined = nl.Xor(a, b);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(a), TaintLabel::kBlinded);
  EXPECT_EQ(t.LabelOf(b), TaintLabel::kBlinded);
  EXPECT_EQ(t.LabelOf(combined), TaintLabel::kSecret);
}

TEST(TaintLattice, MuxSelectTaintsOutput) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  nl.MarkSecret(s);
  const NetId by_secret_sel = nl.Mux(s, a, b);
  const NetId by_clean_sel = nl.Mux(a, b, s);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(by_secret_sel), TaintLabel::kSecret);
  EXPECT_EQ(t.LabelOf(by_clean_sel), TaintLabel::kSecret);
}

TEST(TaintLattice, MuxWithCleanSelectJoinsDisjunctively) {
  Netlist nl;
  const NetId sel = nl.AddInput("sel");
  const NetId s = nl.AddInput("s");
  const NetId r = nl.AddInput("r");
  nl.MarkSecret(s);
  nl.MarkRandom(r, 0);
  const NetId share = nl.Xor(s, r);
  // Recirculation idiom: selecting between two values that involve the
  // SAME mask group must not escalate (the output equals one of them).
  const NetId recirc = nl.Mux(sel, share, share);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(recirc), TaintLabel::kBlinded);
}

TEST(TaintLattice, DffCarriesTaintAcrossState) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId r = nl.AddInput("r");
  const NetId en = nl.AddInput("en");
  nl.MarkSecret(s);
  nl.MarkRandom(r, 0);
  const NetId share = nl.Xor(s, r);
  const NetId q0 = nl.Dff(share, en);
  const NetId q1 = nl.Dff(q0, en);
  const NetId q_secret_en = nl.Dff(nl.AddInput("pub"), s);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(q0), TaintLabel::kBlinded);
  EXPECT_EQ(t.LabelOf(q1), TaintLabel::kBlinded);
  // A secret clock-enable imprints the secret on the held value.
  EXPECT_EQ(t.LabelOf(q_secret_en), TaintLabel::kSecret);
}

TEST(TaintLattice, MaskedShareShiftRegisterStaysBlinded) {
  // The masked exponentiator's key register file in miniature: an l-bit
  // share (e XOR r, per-bit fresh groups) recirculating through a shift
  // register.  The disjunctive DFF/MUX join must keep every stage Blinded
  // even though shifted stages accumulate each other's mask groups.
  Netlist nl;
  constexpr std::size_t kBits = 4;
  const rtl::Bus e = rtl::InputBus(nl, "e", kBits);
  const rtl::Bus r = rtl::InputBus(nl, "r", kBits);
  const NetId load = nl.AddInput("load");
  const NetId shift = nl.AddInput("shift");
  rtl::Bus share(kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    nl.MarkSecret(e[i]);
    nl.MarkRandom(r[i], static_cast<unsigned>(i));
    share[i] = nl.Xor(e[i], r[i]);
  }
  const rtl::Bus q =
      rtl::ShiftLeftRegister(nl, share, load, shift, nl.Const0());
  const TaintReport t = AnalyzeTaint(nl);
  for (std::size_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(t.LabelOf(q[i]), TaintLabel::kBlinded) << "stage " << i;
  }
  // Recombining the share with its own mask group ends the blinding.
  Netlist nl2;
  const NetId s2 = nl2.AddInput("s");
  const NetId r2 = nl2.AddInput("r");
  nl2.MarkSecret(s2);
  nl2.MarkRandom(r2, 7);
  const NetId q2 = nl2.Dff(nl2.Xor(s2, r2));
  const NetId recombined = nl2.Xor(q2, nl2.Dff(r2));
  const TaintReport t2 = AnalyzeTaint(nl2);
  EXPECT_EQ(t2.LabelOf(recombined), TaintLabel::kSecret);
}

TEST(TaintLattice, RandomOnlyLogicStaysRandom) {
  Netlist nl;
  const NetId r0 = nl.AddInput("r0");
  const NetId r1 = nl.AddInput("r1");
  const NetId pub = nl.AddInput("pub");
  nl.MarkRandom(r0, 0);
  nl.MarkRandom(r1, 1);
  const NetId x = nl.Xor(r0, r1);
  const NetId y = nl.And(x, pub);
  const NetId cancel = nl.Xor(r0, r0);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(x), TaintLabel::kRandom);
  EXPECT_EQ(t.LabelOf(y), TaintLabel::kRandom);
  EXPECT_EQ(t.LabelOf(cancel), TaintLabel::kRandom);
  EXPECT_EQ(t.LabelOf(pub), TaintLabel::kClean);
}

TEST(TaintLattice, ForcedAnnotationOnInternalNet) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId g = nl.Buf(a);
  nl.MarkSecret(g);  // key material entering mid-circuit
  const NetId h = nl.Not(g);
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_EQ(t.LabelOf(a), TaintLabel::kClean);
  EXPECT_EQ(t.LabelOf(g), TaintLabel::kSecret);
  EXPECT_EQ(t.LabelOf(h), TaintLabel::kSecret);
}

TEST(TaintLattice, WitnessPathWalksBackToASecretSource) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  const NetId p = nl.AddInput("p");
  nl.MarkSecret(s);
  const NetId g1 = nl.And(s, p);
  const NetId g2 = nl.Xor(g1, p);
  const NetId g3 = nl.Dff(g2);
  const TaintReport t = AnalyzeTaint(nl);
  const std::vector<NetId> path = t.WitnessPath(g3);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), g3);
  EXPECT_EQ(path.back(), s);
  for (const NetId net : path) {
    EXPECT_TRUE(analysis::DependsOnSecret(t.LabelOf(net)));
  }
  EXPECT_TRUE(t.WitnessPath(p).empty());
}

TEST(TaintLattice, MaskGroupOverflowIsConservative) {
  Netlist nl;
  const NetId s = nl.AddInput("s");
  nl.MarkSecret(s);
  NetId acc = s;
  // 70 distinct groups: the dense bitset saturates at 64 and the report
  // must say so (overflow groups alias, preventing disjointness proofs).
  for (unsigned g = 0; g < 70; ++g) {
    const NetId r = nl.AddInput(rtl::IndexedName("r", g));
    nl.MarkRandom(r, g);
    acc = nl.Xor(acc, r);
  }
  const TaintReport t = AnalyzeTaint(nl);
  EXPECT_TRUE(t.mask_groups_overflowed);
  EXPECT_NE(t.LabelOf(acc), TaintLabel::kClean);
}

TEST(TaintLattice, CountsPartitionTheNetlist) {
  const core::ExponentiatorNetlist exp = core::BuildExponentiatorNetlist(4);
  const TaintReport t = AnalyzeTaint(*exp.netlist);
  std::size_t total = 0, logic_total = 0;
  for (int l = 0; l < 4; ++l) {
    total += t.counts[l];
    logic_total += t.logic_counts[l];
  }
  EXPECT_EQ(total, exp.netlist->NodeCount());
  std::size_t expect_logic = 0;  // everything but inputs and constants
  for (std::size_t i = 0; i < exp.netlist->NodeCount(); ++i) {
    const rtl::Op op = exp.netlist->NodeAt(static_cast<NetId>(i)).op;
    if (op != rtl::Op::kInput && op != rtl::Op::kConst0 &&
        op != rtl::Op::kConst1) {
      ++expect_logic;
    }
  }
  EXPECT_EQ(logic_total, expect_logic);
}

// ---------------------------------------------------------------------------
// Structural lint: defective graphs built on purpose
// ---------------------------------------------------------------------------

TEST(Lint, DetectsCombinationalLoopWithoutThrowing) {
  Netlist nl;
  const NetId x = nl.AddInput("x");
  const NetId g1 = nl.And(x, x);
  const NetId g2 = nl.Or(g1, x);
  nl.MarkOutput(g2, "out");
  nl.RewireOperand(g1, 1, g2);  // g1 <-> g2 cycle
  const LintReport report = RunLint(nl);
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kCombLoop, g1));
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kCombLoop, g2));
  EXPECT_THROW(nl.TopoOrder(), std::logic_error);  // the sim would refuse
}

TEST(Lint, DetectsFloatingOperands) {
  Netlist nl;
  const NetId orphan_dff = nl.Dff(kNoNet);  // d never wired
  const NetId x = nl.AddInput("x");
  const NetId gate = nl.And(x, x);
  nl.MarkOutput(gate, "out");
  nl.MarkOutput(orphan_dff, "q");
  nl.RewireOperand(gate, 0, kNoNet);  // gut one gate operand
  const LintReport report = RunLint(nl);
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kFloatingOperand,
                         orphan_dff));
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kFloatingOperand, gate));
  // Re-wiring the DFF clears its finding.
  nl.RewireDff(orphan_dff, x);
  nl.RewireOperand(gate, 0, x);
  EXPECT_FALSE(HasFinding(RunLint(nl).findings, LintRule::kFloatingOperand,
                          orphan_dff));
}

TEST(Lint, UnusedDeadAndWaived) {
  Netlist nl;
  const NetId x = nl.AddInput("x");
  const NetId y = nl.AddInput("y");
  const NetId used = nl.And(x, y);
  nl.MarkOutput(used, "out");
  const NetId feeder = nl.Xor(x, y);    // consumed only by `leaf`
  const NetId leaf = nl.Not(feeder);    // consumed by nobody
  LintReport report = RunLint(nl);
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kUnusedNet, leaf));
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kDeadNet, feeder));
  EXPECT_FALSE(HasFinding(report.findings, LintRule::kUnusedNet, used));

  // A waiver on the leaf covers its whole dead fanin cone and moves the
  // finding to the waived list.
  nl.WaiveLint(leaf, "probe register kept for the testbench");
  report = RunLint(nl);
  EXPECT_TRUE(report.Clean());
  ASSERT_EQ(report.waived.size(), 1u);
  EXPECT_EQ(report.waived[0].net, leaf);
  EXPECT_TRUE(report.stale_waivers.empty());

  // A waiver that matches nothing is reported as stale.
  nl.WaiveLint(used, "obsolete reason");
  report = RunLint(nl);
  ASSERT_EQ(report.stale_waivers.size(), 1u);
  EXPECT_EQ(report.stale_waivers[0], used);
}

TEST(Lint, DetectsPortNameCollisionsAndAliases) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId a2 = nl.AddInput("a");  // duplicate input name
  const NetId g = nl.Or(a, a2);
  nl.MarkOutput(g, "out");
  nl.MarkOutput(g, "out_alias");  // same net, second name
  const NetId h = nl.Not(g);
  nl.MarkOutput(h, "out");  // duplicate output name
  const LintReport report = RunLint(nl);
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kDuplicatePortName, a2));
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kDuplicatePortName, h));
  EXPECT_TRUE(HasFinding(report.findings, LintRule::kAliasedOutput, g));
}

TEST(Lint, ProfilesDepthAndFanout) {
  Netlist nl;
  const NetId x = nl.AddInput("x");
  const NetId g1 = nl.Not(x);
  const NetId g2 = nl.Not(g1);
  const NetId g3 = nl.Not(g2);
  nl.MarkOutput(g3, "out");
  nl.MarkOutput(nl.And(x, g1), "out2");  // x fans out to g1 and this
  const LintReport report = RunLint(nl);
  EXPECT_EQ(report.max_depth, 3u);
  ASSERT_EQ(report.depth_histogram.size(), 4u);
  EXPECT_EQ(report.depth_histogram[3], 1u);  // g3 alone at depth 3
  EXPECT_GE(report.max_fanout, 2u);
}

TEST(Lint, GeneratedCircuitsAreCleanModuloDocumentedWaivers) {
  const auto check = [](const Netlist& nl, const std::string& name) {
    const LintReport report = RunLint(nl);
    EXPECT_TRUE(report.Clean()) << name << ":\n"
                                << FormatLintReport(nl, report);
    EXPECT_TRUE(report.stale_waivers.empty()) << name;
  };
  check(*core::BuildMmmcNetlist(4).netlist, "mmmc4");
  check(*core::BuildMmmcNetlist(8).netlist, "mmmc8");
  check(*core::BuildMmmcNetlist(4, true).netlist, "mmmc4_dual");
  check(*core::BuildSystolicArrayComb(4).netlist, "cells4");
  check(*core::BuildExponentiatorNetlist(4).netlist, "exp4");
  core::ExponentiatorNetlistOptions masked;
  masked.mask_exponent = true;
  check(*core::BuildExponentiatorNetlist(4, masked).netlist, "exp4_masked");
}

// ---------------------------------------------------------------------------
// Taint shape of the generated circuits
// ---------------------------------------------------------------------------

TEST(GeneratedTaint, MmmcDatapathIsSecretControlIsClean) {
  const core::MmmcNetlist gen = core::BuildMmmcNetlist(4);
  const TaintReport t = AnalyzeTaint(*gen.netlist);
  for (const NetId bit : gen.result) {
    EXPECT_EQ(t.LabelOf(bit), TaintLabel::kSecret);
  }
  // The paper's schedule is operand-independent: DONE, the state bits and
  // the comparator live outside the secret cone.
  EXPECT_EQ(t.LabelOf(gen.done), TaintLabel::kClean);
  EXPECT_EQ(t.LabelOf(gen.state_s0), TaintLabel::kClean);
  EXPECT_EQ(t.LabelOf(gen.state_s1), TaintLabel::kClean);
  EXPECT_EQ(t.LabelOf(gen.count_end), TaintLabel::kClean);
}

TEST(GeneratedTaint, MaskedExponentiatorShowsTheBlindingCut) {
  const core::ExponentiatorNetlist plain = core::BuildExponentiatorNetlist(4);
  core::ExponentiatorNetlistOptions opt;
  opt.mask_exponent = true;
  const core::ExponentiatorNetlist masked =
      core::BuildExponentiatorNetlist(4, opt);
  const TaintReport tp = AnalyzeTaint(*plain.netlist);
  const TaintReport tm = AnalyzeTaint(*masked.netlist);
  const auto secret_logic = [](const TaintReport& t) {
    return t.logic_counts[static_cast<std::size_t>(TaintLabel::kSecret)];
  };
  const auto blinded_logic = [](const TaintReport& t) {
    return t.logic_counts[static_cast<std::size_t>(TaintLabel::kBlinded)];
  };
  // The acceptance criterion: the masked twin's Secret cone is strictly
  // smaller — the key register file moved from Secret to Blinded.
  EXPECT_LT(secret_logic(tm), secret_logic(tp));
  EXPECT_GT(blinded_logic(tm), 0u);
  EXPECT_EQ(blinded_logic(tp), 0u);
  // Both schedules are exponent-independent at the label level.
  EXPECT_EQ(tp.LabelOf(plain.done), TaintLabel::kClean);
  EXPECT_EQ(tm.LabelOf(masked.done), TaintLabel::kClean);
  for (const NetId bit : masked.e_in) {
    EXPECT_EQ(tm.LabelOf(bit), TaintLabel::kSecret);
  }
  for (const NetId bit : masked.r_in) {
    EXPECT_EQ(tm.LabelOf(bit), TaintLabel::kRandom);
  }
}

// ---------------------------------------------------------------------------
// Dynamic soundness crosscheck
// ---------------------------------------------------------------------------

TEST(Crosscheck, GeneratedCircuitsAreSound) {
  struct Case {
    const char* name;
    std::unique_ptr<Netlist> netlist;
    std::size_t expect_secret_bits;
    std::size_t ticks;
  };
  core::ExponentiatorNetlistOptions masked;
  masked.mask_exponent = true;
  std::vector<Case> cases;
  cases.push_back({"mmmc4", core::BuildMmmcNetlist(4).netlist, 10, 256});
  cases.push_back(
      {"cells4", core::BuildSystolicArrayComb(4).netlist, 9, 64});
  cases.push_back(
      {"exp4", core::BuildExponentiatorNetlist(4).netlist, 4, 768});
  cases.push_back(
      {"exp4_masked", core::BuildExponentiatorNetlist(4, masked).netlist, 4,
       768});
  for (const Case& c : cases) {
    const TaintReport taint = AnalyzeTaint(*c.netlist);
    CrosscheckOptions opt;
    opt.ticks = c.ticks;
    const CrosscheckResult result =
        RunDifferentialCrosscheck(*c.netlist, taint, opt);
    EXPECT_TRUE(result.Sound())
        << c.name << ":\n"
        << FormatCrosscheckResult(*c.netlist, result);
    EXPECT_EQ(result.secret_bits, c.expect_secret_bits) << c.name;
    EXPECT_GT(result.differing_nets, 0u) << c.name;
    EXPECT_GT(result.tainted_coverage, 0.5) << c.name;
  }
}

TEST(Crosscheck, DetectsAnUnsoundLabel) {
  const core::MmmcNetlist gen = core::BuildMmmcNetlist(4);
  TaintReport taint = AnalyzeTaint(*gen.netlist);
  // Sabotage: claim a result bit is Clean.  The differential runs must
  // catch it (result bits demonstrably depend on the secret operands).
  const NetId victim = gen.result[0];
  taint.label[victim] = TaintLabel::kClean;
  CrosscheckOptions opt;
  opt.ticks = 256;
  const CrosscheckResult result =
      RunDifferentialCrosscheck(*gen.netlist, taint, opt);
  EXPECT_FALSE(result.Sound());
  EXPECT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0], victim);
}

TEST(Crosscheck, RequiresASecretInput) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  nl.MarkOutput(nl.Not(a), "out");
  const TaintReport taint = AnalyzeTaint(nl);
  EXPECT_THROW(RunDifferentialCrosscheck(nl, taint, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exponentiator netlist: functional equivalence with the software flow
// ---------------------------------------------------------------------------

/// Runs one exponentiation on the netlist (lane 0) and returns the raw
/// Montgomery-domain result; fails the test if DONE never rises.
BigUInt RunNetlistExp(const core::ExponentiatorNetlist& gen,
                      rtl::BatchSimulator& sim, const BigUInt& n,
                      const BigUInt& xbar, const BigUInt& one,
                      const BigUInt& e, const BigUInt& r_mask) {
  sim.Reset();
  test::SetBusAllLanes(sim, gen.x_in, xbar);
  test::SetBusAllLanes(sim, gen.one_in, one);
  test::SetBusAllLanes(sim, gen.n_in, n);
  test::SetBusAllLanes(sim, gen.e_in, e);
  if (gen.masked) test::SetBusAllLanes(sim, gen.r_in, r_mask);
  sim.SetInputAll(gen.start, true);
  sim.Tick();
  sim.SetInputAll(gen.start, false);
  // l scan steps of (square MMM + multiply MMM), each 3l+4 cycles plus
  // handshake slack.
  const std::size_t cap = gen.l * 2 * (3 * gen.l + 16) + 64;
  for (std::size_t cycle = 0; cycle < cap; ++cycle) {
    sim.Tick();
    if (sim.PeekLane(gen.done, 0)) {
      return sim.PeekWide(gen.result, 0);
    }
  }
  ADD_FAILURE() << "exponentiator netlist never raised DONE (l = " << gen.l
                << ")";
  return BigUInt{};
}

/// Bit-exact software emulation of the netlist's multiply-always schedule.
BigUInt EmulateExpSchedule(const BitSerialMontgomery& ctx, const BigUInt& xbar,
                           const BigUInt& one, const BigUInt& e,
                           std::size_t l) {
  BigUInt a = one;
  for (std::size_t i = l; i-- > 0;) {
    a = ctx.MultiplyAlg2(a, a);
    const BigUInt t = ctx.MultiplyAlg2(a, xbar);
    if (e.Bit(i)) a = t;
  }
  return a;
}

TEST(ExponentiatorNetlist, MatchesSoftwareMontgomeryFlow) {
  const BigUInt n(53);  // l = 6
  const BitSerialMontgomery ctx(n);
  const core::ExponentiatorNetlist gen = core::BuildExponentiatorNetlist(6);
  ASSERT_EQ(ctx.l(), gen.l);
  rtl::BatchSimulator sim(*gen.netlist);
  const BigUInt one = ctx.ToMont(BigUInt(1));
  for (const std::uint64_t x : {2ull, 17ull, 45ull}) {
    for (const std::uint64_t e : {0ull, 1ull, 37ull, 63ull}) {
      const BigUInt xbar = ctx.ToMont(BigUInt(x));
      const BigUInt got =
          RunNetlistExp(gen, sim, n, xbar, one, BigUInt(e), BigUInt(0));
      // Bit-exact against the emulated schedule, and congruent to x^e.
      EXPECT_EQ(got, EmulateExpSchedule(ctx, xbar, one, BigUInt(e), gen.l))
          << "x=" << x << " e=" << e;
      EXPECT_EQ(ctx.FromMont(got), BigUInt::ModExp(BigUInt(x), BigUInt(e), n))
          << "x=" << x << " e=" << e;
    }
  }
}

TEST(ExponentiatorNetlist, MaskedVariantComputesTheSameFunction) {
  const BigUInt n(53);
  const BitSerialMontgomery ctx(n);
  core::ExponentiatorNetlistOptions opt;
  opt.mask_exponent = true;
  const core::ExponentiatorNetlist gen =
      core::BuildExponentiatorNetlist(6, opt);
  rtl::BatchSimulator sim(*gen.netlist);
  const BigUInt one = ctx.ToMont(BigUInt(1));
  const BigUInt xbar = ctx.ToMont(BigUInt(29));
  const BigUInt e(45);
  const BigUInt expect = EmulateExpSchedule(ctx, xbar, one, e, gen.l);
  // The mask must be functionally invisible: any r gives the same result.
  for (const std::uint64_t r : {0ull, 0b101101ull, 0b111111ull, 0b010010ull}) {
    EXPECT_EQ(RunNetlistExp(gen, sim, n, xbar, one, e, BigUInt(r)), expect)
        << "r=" << r;
  }
}

TEST(ExponentiatorNetlist, DonePulsesOnceAndResultHolds) {
  const BigUInt n(13);  // l = 4
  const BitSerialMontgomery ctx(n);
  const core::ExponentiatorNetlist gen = core::BuildExponentiatorNetlist(4);
  rtl::BatchSimulator sim(*gen.netlist);
  const BigUInt one = ctx.ToMont(BigUInt(1));
  const BigUInt xbar = ctx.ToMont(BigUInt(7));
  const BigUInt got = RunNetlistExp(gen, sim, n, xbar, one, BigUInt(11),
                                    BigUInt(0));
  // After DONE the FSM returns to IDLE and the accumulator holds.
  for (int i = 0; i < 8; ++i) {
    sim.Tick();
    EXPECT_FALSE(sim.PeekLane(gen.done, 0));
    EXPECT_EQ(sim.PeekWide(gen.result, 0), got);
  }
}

TEST(ExponentiatorNetlist, LanesRunIndependentProblems) {
  const BigUInt n(53);
  const BitSerialMontgomery ctx(n);
  const core::ExponentiatorNetlist gen = core::BuildExponentiatorNetlist(6);
  rtl::BatchSimulator sim(*gen.netlist);
  const BigUInt one = ctx.ToMont(BigUInt(1));
  sim.Reset();
  test::SetBusAllLanes(sim, gen.one_in, one);
  test::SetBusAllLanes(sim, gen.n_in, n);
  const std::uint64_t xs[4] = {2, 7, 29, 45};
  const std::uint64_t es[4] = {5, 12, 33, 60};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    test::SetBusLane(sim, gen.x_in, lane, ctx.ToMont(BigUInt(xs[lane])));
    test::SetBusLane(sim, gen.e_in, lane, BigUInt(es[lane]));
  }
  sim.SetInputAll(gen.start, true);
  sim.Tick();
  sim.SetInputAll(gen.start, false);
  const std::size_t cap = gen.l * 2 * (3 * gen.l + 16) + 64;
  // The multiply-always schedule is exponent-independent, so every lane
  // must raise DONE on the same cycle.
  bool done = false;
  for (std::size_t cycle = 0; cycle < cap && !done; ++cycle) {
    sim.Tick();
    done = sim.PeekLane(gen.done, 0);
    for (std::size_t lane = 1; lane < 4; ++lane) {
      ASSERT_EQ(sim.PeekLane(gen.done, lane), done) << "lane " << lane;
    }
  }
  ASSERT_TRUE(done) << "no lane finished";
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const BigUInt got = sim.PeekWide(gen.result, lane);
    EXPECT_EQ(got, EmulateExpSchedule(ctx, ctx.ToMont(BigUInt(xs[lane])), one,
                                      BigUInt(es[lane]), gen.l))
        << "lane " << lane;
  }
}

}  // namespace
}  // namespace mont
