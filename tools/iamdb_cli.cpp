// iamdb_cli: command-line client for iamdb_server.
//
// One-shot:
//   iamdb_cli [--host=H] [--port=N] ping
//   iamdb_cli put <key> <value>
//   iamdb_cli get <key>
//   iamdb_cli mget <key> [key...]      (shard-routed batched reads)
//   iamdb_cli del <key>
//   iamdb_cli scan [start [end [limit]]]   (shard fan-out, merged locally)
//   iamdb_cli info [property]          (e.g. iamdb.stats, server.stats)
//   iamdb_cli stats                    (decoded DbStats snapshot)
//   iamdb_cli shardmap                 (server's shard layout)
//   iamdb_cli shard-stats              (per-shard stats breakdown)
//
// mget and scan are cluster-aware: against a sharded server they route
// per shard client-side (MultiGetSharded / ScanSharded); against a plain
// server they degrade to the single-request forms.
//
// With no command, drops into a REPL speaking the same verbs plus
// `batch` (lines of put/del until `commit`, applied atomically) and
// `quit`.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "memtable/write_batch.h"
#include "server/client.h"

namespace {

using namespace iamdb;

void PrintStat(const char* name, uint64_t v) {
  std::printf("%s: %" PRIu64 "\n", name, v);
}
void PrintStat(const char* name, int v) { std::printf("%s: %d\n", name, v); }
void PrintStat(const char* name, double v) {
  std::printf("%s: %.3f\n", name, v);
}

// One line per metric the server sent (a group it left out is all zero),
// then the per-level metrics as a table.
void PrintStats(const DbStats& stats) {
  ForEachSentDbStat(stats, [](const StatInfo& info, const auto& v) {
    if constexpr (!kIsPerLevelStat<std::remove_cvref_t<decltype(v)>>) {
      PrintStat(info.name, v);
    }
  });
  for (size_t i = 0; i < stats.level_bytes.size(); i++) {
    std::printf("level %zu: %" PRIu64 "B in %d nodes", i + 1,
                stats.level_bytes[i],
                i < stats.level_node_counts.size()
                    ? stats.level_node_counts[i]
                    : 0);
    if (i < stats.level_write_amp.size()) {
      std::printf(", write_amp %.3f", stats.level_write_amp[i]);
    }
    std::printf("\n");
  }
}

// Returns the process exit code for one command; `argv`-style tokens.
int RunCommand(Client* client, const std::vector<std::string>& args) {
  const std::string& cmd = args[0];
  Status s;
  if (cmd == "ping") {
    s = client->Ping();
    if (s.ok()) std::printf("pong\n");
  } else if (cmd == "put" && args.size() == 3) {
    s = client->Put(args[1], args[2]);
    if (s.ok()) std::printf("OK\n");
  } else if (cmd == "get" && args.size() == 2) {
    std::string value;
    s = client->Get(args[1], &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
  } else if (cmd == "mget" && args.size() >= 2) {
    std::vector<std::string> keys(args.begin() + 1, args.end());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    s = client->MultiGetSharded(keys, &values, &statuses);
    if (s.ok()) {
      int found = 0;
      for (size_t i = 0; i < keys.size(); i++) {
        if (statuses[i].ok()) {
          std::printf("%s => %s\n", keys[i].c_str(), values[i].c_str());
          found++;
        } else {
          std::printf("%s => (not found)\n", keys[i].c_str());
        }
      }
      std::printf("(%d/%zu found)\n", found, keys.size());
    }
  } else if (cmd == "del" && args.size() == 2) {
    s = client->Delete(args[1]);
    if (s.ok()) std::printf("OK\n");
  } else if (cmd == "scan" && args.size() <= 4) {
    std::string start = args.size() > 1 ? args[1] : "";
    std::string end = args.size() > 2 ? args[2] : "";
    uint32_t limit = args.size() > 3
                         ? static_cast<uint32_t>(std::atoi(args[3].c_str()))
                         : 0;
    std::vector<wire::KeyValue> entries;
    bool truncated = false;
    s = client->ScanSharded(start, end, limit, &entries, &truncated);
    if (s.ok()) {
      for (const auto& [key, value] : entries) {
        std::printf("%s => %s\n", key.c_str(), value.c_str());
      }
      std::printf("(%zu entries%s)\n", entries.size(),
                  truncated ? ", truncated" : "");
    }
  } else if (cmd == "info" && args.size() <= 2) {
    if (args.size() == 1) {
      DbStats stats;
      s = client->GetStats(&stats);
      if (s.ok()) PrintStats(stats);
    } else {
      std::string value;
      s = client->GetProperty(args[1], &value);
      if (s.ok()) std::printf("%s", value.c_str());
    }
  } else if (cmd == "stats") {
    DbStats stats;
    s = client->GetStats(&stats);
    if (s.ok()) PrintStats(stats);
  } else if (cmd == "shardmap") {
    int num_shards = 1;
    s = client->GetShardMap(&num_shards);
    if (s.ok()) {
      std::string text;
      if (client->GetProperty("iamdb.shardmap", &text).ok()) {
        std::printf("%s\n", text.c_str());
      } else {
        std::printf("unsharded (1 shard)\n");
      }
    }
  } else if (cmd == "shard-stats") {
    std::string text;
    s = client->GetProperty("iamdb.shard-stats", &text);
    if (s.IsNotFound()) {
      std::printf("unsharded server: no per-shard breakdown\n");
      s = Status::OK();
    } else if (s.ok()) {
      std::printf("%s", text.c_str());
    }
  } else {
    std::fprintf(stderr, "unknown or malformed command '%s'\n", cmd.c_str());
    return 2;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int Repl(Client* client) {
  std::string line;
  std::printf("iamdb> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (in >> tok) tokens.push_back(tok);
    if (!tokens.empty()) {
      if (tokens[0] == "quit" || tokens[0] == "exit") break;
      if (tokens[0] == "help") {
        std::printf(
            "commands: ping | put k v | get k | mget k [k...] | del k | "
            "scan [start [end [limit]]] | info [prop] | stats | shardmap | "
            "shard-stats | batch | quit\n");
      } else if (tokens[0] == "batch") {
        // Collect put/del lines until `commit` (or `abort`), apply as one
        // atomic WriteBatch.
        WriteBatch batch;
        int n = 0;
        bool commit = false;
        std::printf("batch> ");
        std::fflush(stdout);
        while (std::getline(std::cin, line)) {
          std::istringstream bin(line);
          std::vector<std::string> btok;
          while (bin >> tok) btok.push_back(tok);
          if (!btok.empty()) {
            if (btok[0] == "commit") {
              commit = true;
              break;
            } else if (btok[0] == "abort") {
              break;
            } else if (btok[0] == "put" && btok.size() == 3) {
              batch.Put(btok[1], btok[2]);
              n++;
            } else if (btok[0] == "del" && btok.size() == 2) {
              batch.Delete(btok[1]);
              n++;
            } else {
              std::printf("batch expects: put k v | del k | commit | abort\n");
            }
          }
          std::printf("batch> ");
          std::fflush(stdout);
        }
        if (commit) {
          Status s = client->Write(batch);
          if (s.ok()) {
            std::printf("OK (%d ops)\n", n);
          } else {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
          }
        } else {
          std::printf("aborted\n");
        }
      } else {
        RunCommand(client, tokens);
      }
    }
    std::printf("iamdb> ");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClientOptions options;
  int argi = 1;
  for (; argi < argc; argi++) {
    if (std::strncmp(argv[argi], "--host=", 7) == 0) {
      options.host = argv[argi] + 7;
    } else if (std::strncmp(argv[argi], "--port=", 7) == 0) {
      options.port = std::atoi(argv[argi] + 7);
    } else {
      break;
    }
  }

  Client client(options);
  Status s = client.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  if (argi >= argc) return Repl(&client);
  std::vector<std::string> args(argv + argi, argv + argc);
  return RunCommand(&client, args);
}
