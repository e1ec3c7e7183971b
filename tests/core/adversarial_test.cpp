// Adversarial tests: protocol-level attacks crafted as raw packets against
// the inner-circle services — forged agreed messages, replayed agreements,
// level inflation, Sybil-style duplicate partials, forged acks, and solicit
// floods from compromised nodes.
#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

class AdversarialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::WorldConfig config;
    config.tx_range = 250;
    config.seed = 91;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(92, 4, 512);
    pki_ = std::make_unique<crypto::ModelPki>(93, 512);
    // Six honest inner-circle nodes plus one attacker node (id 6) that runs
    // no framework — it injects raw packets.
    for (int i = 0; i < 6; ++i) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(
          sim::Vec2{400.0 + 40.0 * (i % 3), 400.0 + 40.0 * (i / 3)}));
      InnerCircleConfig icc_config;
      icc_config.level = 2;
      circles_.push_back(
          std::make_unique<InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
      circles_.back()->callbacks().check = [](sim::NodeId, const Value&) { return true; };
      circles_.back()->start();
    }
    attacker_ = &world_->add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{460, 460}));
    // The attacker is compromised, not fabricated: it holds its own (single)
    // legitimate signer — the paper's adversary model (§2).
    attacker_signer_ = scheme_->issue_signer(attacker_->id());
    attacker_pki_ = pki_->issue_signer(attacker_->id());
    world_->run_until(5.0);
  }

  void inject(std::shared_ptr<const sim::Payload> body, sim::NodeId dst) {
    sim::Packet packet;
    packet.src = attacker_->id();
    packet.dst = dst;
    packet.port = sim::Port::kIvs;
    packet.size_bytes = 64;
    packet.body = std::move(body);
    attacker_->send_unfiltered(std::move(packet), dst);
  }

  int count_deliveries() {
    int delivered = 0;
    for (auto& circle : circles_) {
      circle->callbacks().on_agreed = [&delivered](const AgreedMsg&, bool) { ++delivered; };
    }
    return delivered;  // snapshot trick: caller re-reads after run
  }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<InnerCircleNode>> circles_;
  sim::Node* attacker_{nullptr};
  std::unique_ptr<crypto::ThresholdSigner> attacker_signer_;
  std::unique_ptr<crypto::NodeSigner> attacker_pki_;
};

TEST_F(AdversarialTest, ForgedAgreedMessageRejectedAndSenderSuspected) {
  int delivered = 0;
  for (auto& circle : circles_) {
    circle->callbacks().on_agreed = [&delivered](const AgreedMsg&, bool) { ++delivered; };
  }
  auto forged = std::make_shared<AgreedMsg>();
  forged->source = attacker_->id();
  forged->round = 1;
  forged->level = 2;
  forged->value = Value{0xBA, 0xD0};
  forged->sig.level = 2;
  forged->sig.data = std::vector<std::uint8_t>(64, 0x42);  // garbage signature
  inject(forged, sim::kBroadcast);
  world_->run_until(6.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(world_->metrics().counter_value("ivs.agreed_rejected"), 1.0);
  int suspicions = 0;
  for (auto& circle : circles_) {
    if (circle->suspicions().suspected(attacker_->id(), world_->now())) ++suspicions;
  }
  EXPECT_GE(suspicions, 1);
}

TEST_F(AdversarialTest, SelfSignedLevelOneCannotMasqueradeAsLevelTwo) {
  // The attacker's own partial is legitimate, but one share never makes a
  // signature: combining requires level+1 distinct signers.
  const auto msg_bytes = AgreedMsg::signed_bytes(attacker_->id(), 9, 2, Value{1});
  std::vector<crypto::PartialSig> only_own{attacker_signer_->partial_sign(2, msg_bytes),
                                           attacker_signer_->partial_sign(2, msg_bytes),
                                           attacker_signer_->partial_sign(2, msg_bytes)};
  EXPECT_FALSE(scheme_->combine(2, msg_bytes, only_own).has_value());
}

TEST_F(AdversarialTest, ReplayedAgreedMessageDeliveredOnce) {
  // A compromised relay replays a legitimate agreed message many times: the
  // application must see it exactly once per node.
  std::optional<AgreedMsg> captured;
  int deliveries = 0;
  for (auto& circle : circles_) {
    circle->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
      if (is_center) captured = msg;
      ++deliveries;
    };
  }
  circles_[0]->initiate(Value{5});
  world_->run_until(6.0);
  ASSERT_TRUE(captured.has_value());
  const int before_replay = deliveries;
  for (int i = 0; i < 5; ++i) {
    inject(std::make_shared<AgreedMsg>(*captured), sim::kBroadcast);
  }
  world_->run_until(7.0);
  EXPECT_EQ(deliveries, before_replay);
}

TEST_F(AdversarialTest, ForgedAckFromNonHolderDoesNotCount) {
  // The attacker acks a round claiming to be node 3 (whose shares it does
  // not hold). The center must reject the partial and suspect the liar.
  bool agreed = false;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  // Stop honest members 1..5 from acking so only forgeries could complete
  // the round.
  for (std::size_t i = 1; i < 6; ++i) {
    circles_[i]->callbacks().check = [](sim::NodeId, const Value&) { return false; };
  }
  const std::uint64_t round = circles_[0]->initiate(Value{6});
  // Craft two forged acks claiming to be nodes 3 and 4, with tags made from
  // the attacker's own share (the best a non-holder can do).
  const auto bytes = AgreedMsg::signed_bytes(0, round, 2, Value{6});
  for (const sim::NodeId fake : {3u, 4u}) {
    auto ack = std::make_shared<AckMsg>();
    ack->sender = fake;
    ack->center = 0;
    ack->round = round;
    ack->psig = attacker_signer_->partial_sign(2, bytes);
    ack->psig.signer = fake;  // lie about whose share signed
    inject(ack, 0);
  }
  world_->run_until(6.0);
  EXPECT_FALSE(agreed);
}

TEST_F(AdversarialTest, LevelInflationOnAgreedMessageFails) {
  // Take a legitimate level-2 agreement and re-advertise it as level 3.
  std::optional<AgreedMsg> captured;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
    if (is_center) captured = msg;
  };
  circles_[0]->initiate(Value{7});
  world_->run_until(6.0);
  ASSERT_TRUE(captured.has_value());
  AgreedMsg inflated = *captured;
  inflated.level = 3;
  inflated.sig.level = 3;
  EXPECT_FALSE(circles_[1]->ivs().verify_agreed(inflated));
  AgreedMsg downgraded = *captured;
  downgraded.level = 1;
  downgraded.sig.level = 1;
  EXPECT_FALSE(circles_[1]->ivs().verify_agreed(downgraded));
}

TEST_F(AdversarialTest, EmbeddedAgreedBytesVerifyAndRejectTampering) {
  // The multi-hop embedding path: serialize an agreed message into opaque
  // bytes (as the sensor app does for diffusion) and verify it at a remote
  // framework node.
  std::optional<AgreedMsg> captured;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
    if (is_center) captured = msg;
  };
  circles_[0]->initiate(Value{0x11});
  world_->run_until(6.0);
  ASSERT_TRUE(captured.has_value());
  const auto bytes = captured->serialize();
  const auto verified = circles_[5]->verify_agreed_bytes(bytes);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(verified->value, Value{0x11});
  EXPECT_EQ(verified->level, 2);

  auto tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_FALSE(circles_[5]->verify_agreed_bytes(tampered).has_value());
  EXPECT_FALSE(circles_[5]->verify_agreed_bytes(std::vector<std::uint8_t>{1, 2}).has_value());
}

TEST_F(AdversarialTest, EmbeddedAgreedBytesWithAppendedBytesRejected) {
  // A genuine agreed message with two bytes appended: the signed prefix
  // still verifies, but the whole buffer is not an agreed message.
  std::optional<AgreedMsg> captured;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
    if (is_center) captured = msg;
  };
  circles_[0]->initiate(Value{0x22});
  world_->run_until(6.0);
  ASSERT_TRUE(captured.has_value());
  auto bytes = captured->serialize();
  ASSERT_TRUE(circles_[5]->verify_agreed_bytes(bytes).has_value());
  bytes.push_back(0x00);
  bytes.push_back(0x01);
  EXPECT_FALSE(AgreedMsg::deserialize(bytes).has_value());
  EXPECT_FALSE(circles_[5]->verify_agreed_bytes(bytes).has_value());
}

TEST_F(AdversarialTest, SolicitFloodFromSuspectIsIgnored) {
  // Once convicted, the attacker's solicit storms produce no value replies.
  for (auto& circle : circles_) {
    circle->suspicions().convict(attacker_->id(), "test");
    circle->callbacks().get_value = [](sim::NodeId, const Value&) -> std::optional<Value> {
      return Value{1};
    };
  }
  const double acks_before = world_->metrics().counter_value("ivs.acks_sent");
  for (int i = 0; i < 20; ++i) {
    auto solicit = std::make_shared<SolicitMsg>();
    solicit->center = attacker_->id();
    solicit->round = static_cast<std::uint64_t>(i + 1);
    solicit->level = 1;
    solicit->topic = Value{1};
    inject(solicit, sim::kBroadcast);
  }
  world_->run_until(6.0);
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("ivs.acks_sent"), acks_before);
}

TEST_F(AdversarialTest, UnsuspectedCompromisedCenterStillNeedsApprovals) {
  // The attacker is not (yet) suspected and sends a deterministic propose
  // for a value that honest members reject: no quorum, no signature — the
  // masking property that neutralizes black holes.
  for (auto& circle : circles_) {
    circle->callbacks().check = [](sim::NodeId, const Value& v) {
      return !v.empty() && v[0] != 0xEE;  // reject the attacker's value
    };
  }
  auto propose = std::make_shared<ProposeMsg>();
  propose->center = attacker_->id();
  propose->round = 1;
  propose->level = 2;
  propose->value = Value{0xEE};
  propose->center_sig = attacker_pki_->sign(ProposeMsg::propose_bytes(
      attacker_->id(), 1, 2, VotingMode::kDeterministic, propose->value));
  inject(propose, sim::kBroadcast);
  world_->run_until(6.0);
  // The propose is dropped even before the application check runs: the
  // attacker never completed STS authentication, so no honest node
  // considers it an inner-circle center at all. Either way, zero approvals.
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("ivs.acks_sent"), 0.0);
}

TEST_F(AdversarialTest, AuthenticatedCompromisedCenterMaskedByCheck) {
  // A compromised-but-authenticated member (node 5 of the circle) proposes
  // a value the honest members reject: the application-aware check withholds
  // every approval, so no level-2 signature can exist (the §5.1 masking
  // argument with T >= 1).
  for (auto& circle : circles_) {
    circle->callbacks().check = [](sim::NodeId, const Value& v) {
      return !v.empty() && v[0] != 0xEE;
    };
  }
  bool agreed = false;
  bool aborted = false;
  circles_[5]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  circles_[5]->callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  circles_[5]->initiate(Value{0xEE});
  world_->run_until(6.0);
  EXPECT_GE(world_->metrics().counter_value("ivs.check_rejected"), 1.0);
  EXPECT_FALSE(agreed);
  EXPECT_TRUE(aborted);
}

}  // namespace
}  // namespace icc::core
