// Tests for the I/O stack: BeeGFS striping and metadata costs, SIONlib
// container bundling, node-local/buddy NVMe store, NAM blob access, and
// the BeeOND sync/async cache.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "io/beegfs.hpp"
#include "io/beeond.hpp"
#include "io/local_store.hpp"
#include "io/nam_store.hpp"
#include "io/sion.hpp"
#include "io/transfer.hpp"
#include "world_fixture.hpp"

namespace {

using namespace cbsim;
using cbsim::testing::World;
using pmpi::Env;

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i)) & 0xff);
  }
  return v;
}

// ------------------------------------------------------------------ BeeGFS

TEST(BeeGfs, WriteReadRoundtrip) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/scratch/data.bin");
    const auto data = pattern(3 << 20, 7);  // three stripes + change
    fs.write(env, f, 0, data);
    std::vector<std::byte> back(data.size());
    EXPECT_EQ(fs.read(env, f, 0, back), data.size());
    EXPECT_EQ(back, data);
    fs.close(env, f);
  });
  EXPECT_EQ(fs.fileSize("/scratch/data.bin"), 3u << 20);
}

TEST(BeeGfs, OffsetWritesExtendFile) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/a");
    const auto d = pattern(100, 1);
    fs.write(env, f, 1000, d);
    EXPECT_EQ(fs.fileSize("/a"), 1100u);
    std::vector<std::byte> back(100);
    fs.read(env, f, 1000, back);
    EXPECT_EQ(back, d);
  });
}

TEST(BeeGfs, MetadataOpsAreCounted) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/x");  // 1
    fs.close(env, f);               // 2
    auto g = fs.open(env, "/x");    // 3
    fs.close(env, g);               // 4
    fs.remove(env, "/x");           // 5
  });
  EXPECT_EQ(fs.stats().metaOps, 5u);
  EXPECT_FALSE(fs.exists("/x"));
}

TEST(BeeGfs, StripingSpreadsChunksOverTargets) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/big");
    fs.write(env, f, 0, pattern(4 << 20, 2));  // 4 chunks over 2 targets
  });
  EXPECT_EQ(fs.stats().chunkWrites, 4u);
  const auto storage = w.machine.nodesOfKind(hw::NodeKind::Storage);
  // Both data targets (the servers after the metadata server) saw traffic.
  EXPECT_GT(w.machine.disk(storage[1]).bytesWritten(), 0.0);
  EXPECT_GT(w.machine.disk(storage[2]).bytesWritten(), 0.0);
}

TEST(BeeGfs, OpenMissingFileThrows) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.registry.add("bad", [&](Env& env) { fs.open(env, "/nope"); });
  w.rt.launch("bad", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(BeeGfs, WritesChargeIoTime) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  double ioSec = 0;
  w.runRanks(1, [&](Env& env) {
    auto f = fs.create(env, "/t");
    fs.write(env, f, 0, pattern(64 << 20, 3));  // 64 MiB
    ioSec = env.ioSec();
  });
  // 64 MiB over two ~300 MB/s disk arrays: at least ~0.1 s.
  EXPECT_GT(ioSec, 0.05);
}

// ------------------------------------------------------------------ SIONlib

TEST(Sion, CollectiveContainerRoundtrip) {
  World w(hw::MachineConfig::deepEr(4, 2));
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(4, [&](Env& env) {
    const auto mine = pattern(4096, env.rank());
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/ckpt.sion",
                                             mine.size());
    sf.write(env, pmpi::ConstBytes(mine));
    sf.close(env, env.world());

    env.barrier(env.world());
    auto rf = io::SionFile::openCollective(env, env.world(), fs, "/ckpt.sion");
    std::vector<std::byte> back(4096);
    EXPECT_EQ(rf.read(env, pmpi::Bytes(back)), 4096u);
    EXPECT_EQ(back, mine);  // every rank gets its own chunk back
  });
}

TEST(Sion, BundlingSlashesMetadataLoad) {
  // The SIONlib pitch: N task-local files cost N metadata creates;
  // one container costs one.
  World w(hw::MachineConfig::deepEr(8, 2));
  const int n = 8;

  io::BeeGfs fsLocal(w.machine, w.fabric);
  w.runRanks(n, [&](Env& env) {
    auto f = fsLocal.create(env, "/task." + std::to_string(env.rank()));
    fsLocal.write(env, f, 0, pattern(1024, env.rank()));
    fsLocal.close(env, f);
  });

  io::BeeGfs fsSion(w.machine, w.fabric);
  w.runRanks(n, [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fsSion,
                                             "/all.sion", 1024);
    sf.write(env, pmpi::ConstBytes(pattern(1024, env.rank())));
    sf.close(env, env.world());
  });

  EXPECT_EQ(fsLocal.stats().metaOps, 2u * n);         // create+close per task
  EXPECT_EQ(fsSion.stats().metaOps, 2u);              // one create, one close
  EXPECT_LT(fsSion.stats().metaOps * 4, fsLocal.stats().metaOps);
}

TEST(Sion, ChunkOverflowThrows) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  w.registry.add("overflow", [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/s", 16);
    sf.write(env, pmpi::ConstBytes(pattern(17, 0)));
  });
  w.rt.launch("overflow", hw::NodeKind::Cluster, 1);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

TEST(Sion, TaskCountMismatchDetected) {
  World w(hw::MachineConfig::deepEr(4, 2));
  io::BeeGfs fs(w.machine, w.fabric);
  w.runRanks(2, [&](Env& env) {
    auto sf = io::SionFile::createCollective(env, env.world(), fs, "/two", 64);
    sf.write(env, pmpi::ConstBytes(pattern(64, env.rank())));
    sf.close(env, env.world());
  });
  w.registry.add("reopen", [&](Env& env) {
    io::SionFile::openCollective(env, env.world(), fs, "/two");
  });
  w.rt.launch("reopen", hw::NodeKind::Cluster, 3);
  EXPECT_THROW(w.engine.run(), std::runtime_error);
}

// --------------------------------------------------------------- LocalStore

TEST(LocalStore, LocalRoundtrip) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(1 << 20, 5);
    store.write(env, "ckpt/0", pmpi::ConstBytes(data));
    std::vector<std::byte> back;
    ASSERT_TRUE(store.read(env, "ckpt/0", back));
    EXPECT_EQ(back, data);
    EXPECT_GT(env.ioSec(), 0.0);
  });
}

TEST(LocalStore, BuddyWriteLandsOnPartnerNode) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  std::vector<int> nodes(2, -1);
  w.runRanks(2, [&](Env& env) {
    nodes[static_cast<std::size_t>(env.rank())] = env.node().id;
    env.barrier(env.world());
    if (env.rank() == 0) {
      store.writeTo(env, nodes[1], "buddy/0", pmpi::ConstBytes(pattern(4096, 9)));
    }
  });
  EXPECT_FALSE(store.has(nodes[0], "buddy/0"));
  EXPECT_TRUE(store.has(nodes[1], "buddy/0"));
}

TEST(LocalStore, DropNodeLosesData) {
  World w;
  io::LocalStore store(w.machine, w.fabric);
  int node = -1;
  w.runRanks(1, [&](Env& env) {
    node = env.node().id;
    store.write(env, "a", pmpi::ConstBytes(pattern(128, 1)));
    store.write(env, "b", pmpi::ConstBytes(pattern(128, 2)));
  });
  EXPECT_EQ(store.bytesOn(node), 256u);
  store.dropNode(node);
  EXPECT_EQ(store.bytesOn(node), 0u);
  EXPECT_FALSE(store.has(node, "a"));
}

TEST(LocalStore, NvmeIsFasterThanGlobalFs) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::LocalStore store(w.machine, w.fabric);
  double nvmeSec = 0, fsSec = 0;
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(32 << 20, 3);
    const double t0 = env.wtime();
    store.write(env, "local", pmpi::ConstBytes(data));
    nvmeSec = env.wtime() - t0;
    auto f = fs.create(env, "/global");
    const double t1 = env.wtime();
    fs.write(env, f, 0, data);
    fsSec = env.wtime() - t1;
  });
  EXPECT_LT(nvmeSec * 3, fsSec);  // NVMe ~1.9 GB/s vs striped spinning disks
}

// ------------------------------------------------------------------ NamStore

TEST(NamStore, PutGetThroughFabric) {
  World w;
  io::NamStore nam(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(1 << 20, 11);
    ASSERT_TRUE(nam.put(env, 0, "k", pmpi::ConstBytes(data)));
    std::vector<std::byte> back;
    ASSERT_TRUE(nam.get(env, 0, "k", back));
    EXPECT_EQ(back, data);
    EXPECT_FALSE(nam.get(env, 1, "k", back));  // other device is empty
  });
  EXPECT_EQ(nam.usedBytes(0), 1u << 20);
}

TEST(NamStore, CapacityRejectionAfterWireTrip) {
  World w;
  io::NamStore nam(w.machine, w.fabric);
  w.runRanks(1, [&](Env& env) {
    // The NAM holds 2 GB; 3 GB must be rejected.
    std::vector<std::byte> big(16);
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      // Simulate oversize via many 800MB blobs.
      std::vector<std::byte> blob(800u << 20);
      ok = nam.put(env, 0, "blob" + std::to_string(i), pmpi::ConstBytes(blob));
    }
    EXPECT_FALSE(ok);
  });
}

// ------------------------------------------------------------------- BeeOND

TEST(Beeond, SyncWritePersistsToGlobalFs) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache cache(w.machine, fs, io::BeeondCache::Mode::Sync);
  w.runRanks(1, [&](Env& env) {
    cache.write(env, "/out", 0, pmpi::ConstBytes(pattern(4096, 1)));
  });
  EXPECT_EQ(fs.fileSize("/out"), 4096u);
  EXPECT_EQ(cache.pendingFlushes(), 0);
}

TEST(Beeond, AsyncWriteReturnsBeforeFlushCompletes) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache sync(w.machine, fs, io::BeeondCache::Mode::Sync);
  io::BeeondCache async(w.machine, fs, io::BeeondCache::Mode::Async);
  double syncSec = 0, asyncSec = 0;
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(32 << 20, 4);
    double t0 = env.wtime();
    sync.write(env, "/sync", 0, pmpi::ConstBytes(data));
    syncSec = env.wtime() - t0;
    t0 = env.wtime();
    async.write(env, "/async", 0, pmpi::ConstBytes(data));
    asyncSec = env.wtime() - t0;
    async.drain(env);
  });
  EXPECT_LT(asyncSec * 3, syncSec);
  EXPECT_EQ(fs.fileSize("/async"), 32u << 20);
  EXPECT_EQ(async.pendingFlushes(), 0);
}

TEST(Beeond, ReadHitsLocalCache) {
  World w;
  io::BeeGfs fs(w.machine, w.fabric);
  io::BeeondCache cache(w.machine, fs, io::BeeondCache::Mode::Sync);
  w.runRanks(1, [&](Env& env) {
    const auto data = pattern(8 << 20, 6);
    cache.write(env, "/hot", 0, pmpi::ConstBytes(data));
    EXPECT_TRUE(cache.cachedOn(env.node().id, "/hot"));
    const double t0 = env.wtime();
    std::vector<std::byte> back(data.size());
    cache.read(env, "/hot", 0, back);
    const double cachedSec = env.wtime() - t0;
    EXPECT_EQ(back, data);
    // Cached read: NVMe speed, far below the disk-array read path.
    auto f = fs.open(env, "/hot");
    const double t1 = env.wtime();
    fs.read(env, f, 0, back);
    EXPECT_LT(cachedSec * 3, env.wtime() - t1);
  });
}

// ------------------------------------------------------------ awaitTransfer

TEST(AwaitTransfer, LateDeliveryLeavesRecycledStackIntact) {
  // Rank A is cancelled while it waits for a transfer.  The engine reaps A
  // at once and its fiber stack goes back to the pool, where rank B picks
  // it up.  When A's transfer lands later, the completion must not write
  // A's `done` flag into B's frames: B's sentinel block, which spans the
  // depth where A's flag lived, must read back unchanged.
  World w;
  const int srcEp = w.machine.endpointOfNode(0);
  const int dstEp = w.machine.endpointOfNode(1);
  w.registry.add("victim", [&](Env& env) {
    io::awaitTransfer(env, w.fabric, srcEp, dstEp, 1e9);  // ~0.1 s on the wire
  });
  constexpr std::size_t kWords = 4096;  // 32 KiB of stack
  constexpr std::uint64_t kSentinel = 0x5a5a5a5a5a5a5a5aull;
  std::size_t corrupted = 0;
  w.registry.add("bystander", [&](Env& env) {
    volatile std::uint64_t sentinel[kWords];
    for (std::size_t i = 0; i < kWords; ++i) sentinel[i] = kSentinel;
    env.ctx().delay(sim::SimTime::seconds(1.0));  // past A's delivery
    for (std::size_t i = 0; i < kWords; ++i) {
      if (sentinel[i] != kSentinel) ++corrupted;
    }
  });
  const int victim = w.rt.launch("victim", hw::NodeKind::Cluster, 1).id;
  w.engine.schedule(sim::SimTime::ms(1), [&] { w.rt.killJob(victim); });
  w.engine.schedule(sim::SimTime::ms(2), [&] {
    w.rt.launch("bystander", hw::NodeKind::Cluster, 1);
  });
  w.run();
  EXPECT_EQ(corrupted, 0u);
}

}  // namespace
