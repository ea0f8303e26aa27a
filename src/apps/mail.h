// The HCS mail application: one mail transfer agent delivering into
// heterogeneous mail systems through the HNS (the second application domain
// the paper's conclusion names). Delivery composes two query classes:
//
//   1. MailboxInfo on the recipient  -> the responsible relay host,
//   2. HRPCBinding on the relay      -> a binding for its mail-drop service,
//   3. one DELIVER call over whatever protocol that binding selects.
//
// Contrast with sendmail (paper §4): no rewriting rules, no syntax-driven
// guessing — the context names the world, the NSMs own the semantics.

#ifndef HCS_SRC_APPS_MAIL_H_
#define HCS_SRC_APPS_MAIL_H_

#include <map>
#include <string>
#include <vector>

#include "src/hns/import.h"
#include "src/hns/session.h"
#include "src/rpc/server.h"
#include "src/sim/world.h"

namespace hcs {

constexpr uint32_t kMailDropProgram = 700020;
constexpr uint16_t kMailDropPort = 25;
constexpr uint32_t kMailProcDeliver = 1;  // recipient, message -> ()
constexpr uint32_t kMailProcList = 2;     // recipient -> count
constexpr uint32_t kMailProcFetch = 3;    // recipient, index -> message

// A mail-drop server: a per-recipient message spool. The framing protocol
// is chosen at construction (Sun RPC on the Unix relays, Courier on the
// Xerox ones) — the MTA never knows which it talked to.
class MailDropServer {
 public:
  HCS_NODISCARD static Result<MailDropServer*> InstallOn(World* world, const std::string& host,
                                           ControlKind control);

  size_t SpoolSize(const std::string& recipient) const;
  HCS_NODISCARD Result<std::string> SpooledMessage(const std::string& recipient, size_t index) const;

  RpcServer* rpc() { return &rpc_server_; }

 private:
  MailDropServer(World* world, std::string host, ControlKind control);
  void RegisterHandlers();

  // Encoding helpers over the server's native data representation.
  HCS_NODISCARD Result<std::pair<std::string, std::string>> DecodeDeliver(BytesView args) const;
  HCS_NODISCARD Result<std::string> DecodeRecipient(BytesView args) const;

  World* world_;
  std::string host_;
  ControlKind control_;
  RpcServer rpc_server_;
  std::map<std::string, std::vector<std::string>> spools_;  // by lower-cased recipient
};

// The mail transfer agent.
class MailAgent {
 public:
  // `mail_context(relay binding)` query classes come from the recipient's
  // context: "Mail-BIND!user@cs.washington.edu" routes via MX + the BIND
  // binding context; "Mail-CH!Purcell:CSL:Xerox" via the mailbox property +
  // the CH binding context.
  explicit MailAgent(HnsSession* session);

  // Delivers `message` to the recipient named by `to` ("context!individual").
  // Returns the relay host that accepted the message.
  HCS_NODISCARD Result<std::string> Deliver(const std::string& to, const std::string& message);

  uint64_t deliveries() const { return deliveries_; }

 private:
  // Maps a mail context to the binding context of the same world.
  HCS_NODISCARD static Result<std::string> BindingContextFor(const std::string& mail_context);
  // The recipient's mailbox key at the relay (what DELIVER files under).
  static std::string SpoolKey(const HnsName& recipient);
  // The MailboxInfo query name: for BIND-world recipients "user@domain" the
  // relay is chosen by the domain part.
  static std::string MailboxQueryName(const HnsName& recipient);

  HnsSession* session_;
  Importer importer_;
  uint64_t deliveries_ = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_APPS_MAIL_H_
