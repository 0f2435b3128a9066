// DurabilityTracker (§3.2 client blocking tracker) in isolation: no
// sockets, no simulator. Clients are ints, replies strings; `seq` stands
// for the transaction-log append a write was submitted as.

#include "engine/durability_tracker.h"

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace memdb::engine {
namespace {

using Tracker = DurabilityTracker<int, std::string>;
using Keys = std::vector<std::string>;

// (client, reply, ok) in release order.
using Released = std::vector<std::tuple<int, std::string, bool>>;

Released Release(Tracker* t) {
  Released out;
  t->Release([&](int c, std::string r, bool ok) {
    out.emplace_back(c, std::move(r), ok);
  });
  return out;
}

// Parks the reply when it must wait, else "sends" it into *sent.
void SendOrPark(Tracker* t, int client, uint64_t seq, std::string reply,
                Released* sent) {
  if (t->MustPark(client, seq)) {
    t->Park(client, seq, std::move(reply));
  } else {
    sent->emplace_back(client, std::move(reply), true);
  }
}

TEST(DurabilityTrackerTest, HazardIsTheLatestSeqOverTheCommandsKeys) {
  Tracker t;
  EXPECT_EQ(t.HazardFor(Keys{"a"}), 0u);
  t.AddHazards(3, Keys{"a", "b"});
  t.AddHazards(5, Keys{"b"});
  t.AddHazards(4, Keys{"c"});
  EXPECT_EQ(t.HazardFor(Keys{"a"}), 3u);
  EXPECT_EQ(t.HazardFor(Keys{"b"}), 5u);  // the latest write of b wins
  EXPECT_EQ(t.HazardFor(Keys{"a", "c"}), 4u);
  EXPECT_EQ(t.HazardFor(Keys{"c", "b", "a"}), 5u);
  EXPECT_EQ(t.HazardFor(Keys{"z"}), 0u);
  EXPECT_EQ(t.hazards(), 3u);

  // Hazards the floor covers are forgotten on the next release.
  t.Complete(4, true);
  Release(&t);
  EXPECT_EQ(t.HazardFor(Keys{"a", "c"}), 0u);
  EXPECT_EQ(t.HazardFor(Keys{"b"}), 5u);
  EXPECT_EQ(t.hazards(), 1u);
}

TEST(DurabilityTrackerTest, ReadWaitsBehindItsClientsOlderParkedReply) {
  Tracker t;
  Released sent;
  t.AddHazards(7, Keys{"k"});
  SendOrPark(&t, 1, 7, "+OK", &sent);  // client 1's write, seq 7
  // Client 1 then reads an unrelated key: no hazard, but it may not
  // overtake the parked +OK.
  SendOrPark(&t, 1, t.HazardFor(Keys{"other"}), "$nil", &sent);
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(t.parked(), 2u);
  EXPECT_EQ(t.blocked_clients(), 1u);

  t.Complete(6, true);
  EXPECT_TRUE(Release(&t).empty());
  t.Complete(7, true);
  EXPECT_EQ(Release(&t), (Released{{1, "+OK", true}, {1, "$nil", true}}));
  EXPECT_EQ(t.blocked_clients(), 0u);
}

TEST(DurabilityTrackerTest, ReadOnAnotherClientWaitsOnlyOnItsOwnHazard) {
  Tracker t;
  Released sent;
  t.AddHazards(2, Keys{"hot"});
  SendOrPark(&t, 1, 2, "+OK", &sent);
  t.AddHazards(9, Keys{"late"});
  SendOrPark(&t, 1, 9, "+OK9", &sent);

  // Client 2 reads "hot": waits on seq 2, not on client 1's seq 9.
  SendOrPark(&t, 2, t.HazardFor(Keys{"hot"}), "$hot", &sent);
  // Client 3 reads a key nobody wrote: sent at once.
  SendOrPark(&t, 3, t.HazardFor(Keys{"cold"}), "$cold", &sent);
  EXPECT_EQ(sent, (Released{{3, "$cold", true}}));

  t.Complete(2, true);
  EXPECT_EQ(Release(&t), (Released{{1, "+OK", true}, {2, "$hot", true}}));
  EXPECT_FALSE(t.blocked(2));
  EXPECT_TRUE(t.blocked(1));
}

TEST(DurabilityTrackerTest, ReleasesFollowTheFloorInSeqOrder) {
  Tracker t;
  Released sent;
  // Parked out of seq order across clients; equal seqs keep arrival order.
  SendOrPark(&t, 1, 5, "c1@5", &sent);
  SendOrPark(&t, 2, 3, "c2@3", &sent);
  SendOrPark(&t, 3, 5, "c3@5", &sent);
  SendOrPark(&t, 4, 4, "c4@4", &sent);
  SendOrPark(&t, 5, 8, "c5@8", &sent);
  ASSERT_TRUE(sent.empty());

  t.Complete(4, true);
  EXPECT_EQ(Release(&t), (Released{{2, "c2@3", true}, {4, "c4@4", true}}));
  // A stale (lower) completion never moves the floor back.
  t.Complete(2, true);
  EXPECT_EQ(t.floor(), 4u);
  t.Complete(5, true);
  EXPECT_EQ(Release(&t), (Released{{1, "c1@5", true}, {3, "c3@5", true}}));
  EXPECT_EQ(t.parked(), 1u);
  t.Complete(8, true);
  EXPECT_EQ(Release(&t), (Released{{5, "c5@8", true}}));

  // Once durable, a reply of an unblocked client goes out at once.
  SendOrPark(&t, 1, 8, "now", &sent);
  EXPECT_EQ(sent, (Released{{1, "now", true}}));
}

// WAIT depends on no seq of its own: it queues behind the client's parked
// write replies, so it holds until the client's last write is durable.
TEST(DurabilityTrackerTest, WaitHoldsUntilTheClientsLastWrite) {
  Tracker t;
  Released sent;
  SendOrPark(&t, 1, 0, ":2", &sent);  // nothing written yet: at once
  ASSERT_EQ(sent.size(), 1u);

  SendOrPark(&t, 1, 4, "+OK4", &sent);
  SendOrPark(&t, 2, 5, "+OK5", &sent);
  SendOrPark(&t, 1, 6, "+OK6", &sent);
  SendOrPark(&t, 1, 0, ":2", &sent);
  t.Complete(5, true);
  EXPECT_EQ(Release(&t), (Released{{1, "+OK4", true}, {2, "+OK5", true}}));
  t.Complete(6, true);  // client 2's write never held client 1's WAIT
  EXPECT_EQ(Release(&t), (Released{{1, "+OK6", true}, {1, ":2", true}}));

  // Once the client's writes are durable, WAIT answers at once again.
  SendOrPark(&t, 1, 0, ":2", &sent);
  EXPECT_EQ(sent.size(), 2u);
}

TEST(DurabilityTrackerTest, FailedSeqReleasesErrorsNotValues) {
  Tracker t;
  Released sent;
  // Client 1 writes k (seq 3) then pipelines a read of another key.
  t.AddHazards(3, Keys{"k"});
  SendOrPark(&t, 1, 3, "+OK", &sent);
  SendOrPark(&t, 1, 0, "$x", &sent);
  // Client 2 reads k: it sees the unlogged value, parked on seq 3.
  SendOrPark(&t, 2, t.HazardFor(Keys{"k"}), "$unlogged", &sent);
  // Client 3 reads k too, queued behind its own older write (seq 4), so
  // it releases at 4: it still depends on the failed seq 3.
  t.AddHazards(4, Keys{"j"});
  SendOrPark(&t, 3, 4, "+OK4", &sent);
  SendOrPark(&t, 3, t.HazardFor(Keys{"k"}), "$unlogged", &sent);
  ASSERT_TRUE(sent.empty());

  t.Complete(3, /*ok=*/false);
  // The failed write and the read parked on it are failures; the failure
  // ends client 1's stream, so its later reply is dropped.
  EXPECT_EQ(Release(&t),
            (Released{{1, "+OK", false}, {2, "$unlogged", false}}));
  EXPECT_FALSE(t.blocked(1));
  t.Complete(4, true);
  EXPECT_EQ(Release(&t),
            (Released{{3, "+OK4", true}, {3, "$unlogged", false}}));
  EXPECT_EQ(t.parked(), 0u);
  EXPECT_EQ(t.blocked_clients(), 0u);
}

TEST(DurabilityTrackerTest, DroppedClientsRepliesAreNeverReleased) {
  Tracker t;
  Released sent;
  SendOrPark(&t, 1, 2, "c1", &sent);
  SendOrPark(&t, 1, 3, "c1b", &sent);
  SendOrPark(&t, 2, 2, "c2", &sent);
  t.Drop(1);
  EXPECT_FALSE(t.blocked(1));
  EXPECT_EQ(t.parked(), 1u);
  t.Drop(7);  // unknown client: no-op
  t.Complete(3, true);
  EXPECT_EQ(Release(&t), (Released{{2, "c2", true}}));
}

TEST(DurabilityTrackerTest, ClearHandsBackEveryParkedReplyAndResets) {
  Tracker t;
  Released sent;
  t.AddHazards(4, Keys{"k"});
  SendOrPark(&t, 1, 4, "w", &sent);
  SendOrPark(&t, 2, 3, "r", &sent);
  t.Complete(2, true);

  std::vector<std::pair<int, std::string>> failed;
  t.Clear([&](int c, const std::string& r) { failed.emplace_back(c, r); });
  EXPECT_EQ(failed, (std::vector<std::pair<int, std::string>>{{2, "r"},
                                                              {1, "w"}}));
  EXPECT_EQ(t.parked(), 0u);
  EXPECT_EQ(t.hazards(), 0u);
  EXPECT_EQ(t.blocked_clients(), 0u);
  EXPECT_EQ(t.floor(), 0u);
  t.Complete(9, true);
  EXPECT_TRUE(Release(&t).empty());
}

}  // namespace
}  // namespace memdb::engine
