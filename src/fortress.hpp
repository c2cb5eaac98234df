// fortress.hpp — umbrella header for the FORTRESS library.
//
// Pull in the public API of every layer. Fine-grained consumers should
// include the individual module headers instead (see README.md for the
// module map).
#pragma once

// Foundations.
#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

// Cryptography.
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

// Simulation substrate.
#include "net/network.hpp"
#include "net/scenario.hpp"
#include "osl/machine.hpp"
#include "osl/obfuscation.hpp"
#include "osl/probe.hpp"
#include "sim/simulator.hpp"

// Replication protocols and services.
#include "replication/message.hpp"
#include "replication/pb_replica.hpp"
#include "replication/service.hpp"
#include "replication/smr_replica.hpp"

// FORTRESS proper.
#include "core/client.hpp"
#include "core/directory.hpp"
#include "core/live_system.hpp"
#include "proxy/probe_log.hpp"
#include "proxy/proxy_node.hpp"

// Attack machinery.
#include "attack/derand_attacker.hpp"

// Parallel execution and scenario campaigns.
#include "exec/thread_pool.hpp"
#include "scenario/campaign.hpp"

// Resilience evaluation.
#include "analysis/evaluator.hpp"
#include "analysis/markov.hpp"
#include "analysis/matrix.hpp"
#include "analysis/so_numeric.hpp"
#include "model/lifetime_sim.hpp"
#include "model/params.hpp"
#include "model/step_model.hpp"
#include "montecarlo/engine.hpp"
