// kv_server: a confidential key-value service — the kind of tenant workload
// the paper's introduction motivates (tenant data processed in a TEE, host
// untrusted). The server runs the dual-boundary stack; a client drives a
// mixed GET/PUT workload over the TLS-protected link. Wire protocol:
//
//   request  = 'P' keylen:u8 key value        | 'G' keylen:u8 key
//   response = '+' value                      | '-'
//
// The example also plays one attack: mid-workload the host flips to
// payload corruption; the run demonstrates that operations keep failing
// *closed* (TLS kills the link) instead of serving corrupted records.
// Exits non-zero when the link fails to establish, a request before the
// attack goes unanswered, or a request under the attack is served.

#include <cstdio>
#include <map>

#include "src/base/rng.h"
#include "src/cio/engine.h"

namespace {

using cio::LinkedPair;
using cio::StackConfig;
using cio::StackProfile;

ciobase::Buffer PutRequest(const std::string& key, const std::string& value) {
  ciobase::Buffer out;
  out.push_back('P');
  out.push_back(static_cast<uint8_t>(key.size()));
  ciobase::AppendString(out, key);
  ciobase::AppendString(out, value);
  return out;
}

ciobase::Buffer GetRequest(const std::string& key) {
  ciobase::Buffer out;
  out.push_back('G');
  out.push_back(static_cast<uint8_t>(key.size()));
  ciobase::AppendString(out, key);
  return out;
}

// Parses one request against the store; returns the response.
ciobase::Buffer Serve(std::map<std::string, std::string>& store,
                      ciobase::ByteSpan request) {
  ciobase::Buffer response;
  if (request.size() < 2) {
    response.push_back('-');
    return response;
  }
  uint8_t key_len = request[1];
  if (request.size() < 2u + key_len) {
    response.push_back('-');
    return response;
  }
  std::string key(reinterpret_cast<const char*>(request.data() + 2), key_len);
  if (request[0] == 'P') {
    store[key] = std::string(
        reinterpret_cast<const char*>(request.data() + 2 + key_len),
        request.size() - 2 - key_len);
    response.push_back('+');
  } else if (request[0] == 'G') {
    auto it = store.find(key);
    if (it == store.end()) {
      response.push_back('-');
    } else {
      response.push_back('+');
      ciobase::AppendString(response, it->second);
    }
  } else {
    response.push_back('-');
  }
  return response;
}

}  // namespace

int main() {
  StackConfig client_options =
      StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client_options.seed = 11;
  StackConfig server_options = client_options;
  server_options.node_id = 2;

  LinkedPair pair(client_options, server_options);
  if (!pair.Establish(6379)) {
    std::printf("kv: link failed\n");
    return 1;
  }
  std::printf("kv: confidential link established (dual-boundary, TLS)\n");

  std::map<std::string, std::string> store;
  ciobase::Rng rng(77);
  int puts = 0;
  int gets = 0;
  int hits = 0;

  auto transact = [&](const ciobase::Buffer& request) -> ciobase::Buffer {
    pair.client->SendMessage(request);
    ciobase::Buffer response;
    pair.PumpUntil(
        [&] {
          // Server side: answer any pending request.
          auto incoming = pair.server->ReceiveMessage();
          if (incoming.ok()) {
            pair.server->SendMessage(Serve(store, *incoming));
          }
          auto reply = pair.client->ReceiveMessage();
          if (reply.ok()) {
            response = *reply;
            return true;
          }
          return pair.client->Failed() || pair.server->Failed();
        },
        20000);
    return response;
  };

  for (int i = 0; i < 60; ++i) {
    std::string key = "user:" + std::to_string(rng.NextBounded(20));
    const bool put = rng.NextBool(0.4);
    ciobase::Buffer response =
        put ? transact(PutRequest(key, "profile-" + std::to_string(i)))
            : transact(GetRequest(key));
    if (response.empty()) {
      std::printf("kv: request %d went unanswered\n", i);
      return 1;
    }
    const bool ok = response[0] == '+';
    if (put) {
      puts += ok ? 1 : 0;
    } else {
      ++gets;
      hits += ok ? 1 : 0;
    }
  }
  std::printf("kv: workload done: %d puts, %d gets (%d hits)\n", puts, gets,
              hits);
  std::printf("kv: host saw %zu packet-length events and %zu call types\n",
              pair.client->observability().CountOf(
                  ciohost::ObsCategory::kPacketLength),
              pair.client->observability().CountOf(
                  ciohost::ObsCategory::kCallType));

  // The host turns hostile: corrupt packets on the victim's NIC.
  std::printf("kv: host starts corrupting packets...\n");
  pair.client->adversary().set_strategy(
      ciohost::AttackStrategy::kCorruptPayload);
  ciobase::Buffer response = transact(GetRequest("user:1"));
  if (pair.client->Failed() || response.empty()) {
    std::printf("kv: request failed CLOSED (TLS refused corrupted data); "
                "no forged record was served\n");
  } else {
    std::printf("kv: request unexpectedly succeeded\n");
    return 1;
  }
  return 0;
}
