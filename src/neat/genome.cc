#include "neat/genome.hh"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.hh"
#include "common/logging.hh"

namespace genesys::neat
{

MutationCounts &
MutationCounts::operator+=(const MutationCounts &o)
{
    crossoverOps += o.crossoverOps;
    cloneOps += o.cloneOps;
    perturbOps += o.perturbOps;
    addOps += o.addOps;
    deleteOps += o.deleteOps;
    return *this;
}

size_t
Genome::numEnabledConnections() const
{
    size_t n = 0;
    for (const ConnectionGene &cg : connections_.values()) {
        if (cg.enabled)
            ++n;
    }
    return n;
}

std::vector<int>
Genome::inputKeys(const NeatConfig &cfg)
{
    std::vector<int> keys;
    keys.reserve(static_cast<size_t>(cfg.numInputs));
    for (int i = 0; i < cfg.numInputs; ++i)
        keys.push_back(-i - 1);
    return keys;
}

std::vector<int>
Genome::outputKeys(const NeatConfig &cfg)
{
    std::vector<int> keys;
    keys.reserve(static_cast<size_t>(cfg.numOutputs));
    for (int i = 0; i < cfg.numOutputs; ++i)
        keys.push_back(i);
    return keys;
}

Genome
Genome::createNew(int key, const NeatConfig &cfg, NodeIndexer &indexer,
                  XorWow &rng)
{
    Genome g(key);
    const size_t num_inputs = static_cast<size_t>(cfg.numInputs);
    const size_t num_outputs = static_cast<size_t>(cfg.numOutputs);
    const size_t num_hidden = static_cast<size_t>(cfg.numHidden);
    // The draws run on a register-resident copy of the generator (see
    // crossoverInto).
    XorWow local = rng;

    // Node keys come out ascending (outputs, then fresh indexer keys
    // past them), so every emplace appends.
    g.nodes_.reserve(num_outputs + num_hidden);
    for (int out = 0; out < cfg.numOutputs; ++out) {
        g.nodes_.emplace(out, NodeGene::createNew(out, cfg, local));
        indexer.bump(out);
    }
    const int first_hidden = indexer.peek();
    for (size_t j = 0; j < num_hidden; ++j) {
        const int nk = indexer.next();
        g.nodes_.emplace(nk, NodeGene::createNew(nk, cfg, local));
    }

    // Every input connects to every output (the paper's setup,
    // Section III-B). Connections are drawn input-major (inputs -1,
    // -2, ..., each to every output), then per hidden node from every
    // input and to every output; the RNG stream fixes which weight
    // lands on which key. Hidden wiring keeps initial hidden nodes
    // live from the start. The key set is fixed, so each draw is
    // written straight into its sorted slot. In key order, input -a-1
    // owns row num_inputs-1-a: its connections to the outputs, then
    // one to each hidden node. The hidden-to-output connections
    // follow all input rows, hidden node by hidden node.
    const size_t row = num_outputs + num_hidden;
    const size_t hidden_base = num_inputs * row;
    g.connections_.assignInPlace(
        hidden_base + num_hidden * num_outputs,
        [&](std::span<ConnKey> keys, std::span<ConnectionGene> genes) {
            auto put = [&](size_t slot, int src, int dst) {
                keys[slot] = {src, dst};
                genes[slot] =
                    ConnectionGene::createNew(keys[slot], cfg, local);
            };
            const auto row_of = [&](size_t a) {
                return (num_inputs - 1 - a) * row;
            };
            const auto input_key = [](size_t a) {
                return -static_cast<int>(a) - 1;
            };
            for (size_t a = 0; a < num_inputs; ++a) {
                for (size_t o = 0; o < num_outputs; ++o)
                    put(row_of(a) + o, input_key(a), static_cast<int>(o));
            }
            for (size_t j = 0; j < num_hidden; ++j) {
                const int h = first_hidden + static_cast<int>(j);
                for (size_t a = 0; a < num_inputs; ++a)
                    put(row_of(a) + num_outputs + j, input_key(a), h);
                for (size_t o = 0; o < num_outputs; ++o)
                    put(hidden_base + j * num_outputs + o, h,
                        static_cast<int>(o));
            }
        });
    rng = local;
    g.connections_.dcheckInvariants("Genome::createNew");
    return g;
}

Genome
Genome::crossover(int child_key, const Genome &parent1,
                  const Genome &parent2, XorWow &rng, MutationCounts *counts)
{
    Genome child(child_key);
    crossoverInto(child, parent1, parent2, rng, counts);
    return child;
}

namespace
{

/**
 * One crossover merge over a gene map pair. The child starts as a
 * copy of parent1, which drives the merge (its key order fixes the
 * RNG stream): genes only in parent1 stay cloned, homologous genes
 * are crossed over in place, and genes only in parent2 are not
 * inherited, only counted. Returns that parent2-only count.
 */
template <typename Key, typename Gene>
size_t
crossGenes(FlatGeneMap<Key, Gene> &child,
           const FlatGeneMap<Key, Gene> &parent1,
           const FlatGeneMap<Key, Gene> &parent2, XorWow &rng,
           long &crossed)
{
    child = parent1;
    const std::span<Gene> genes = child.mutableValues();
    const auto &v2 = parent2.values();
    size_t only2 = 0;
    mergeJoinSorted(
        parent1.keys(), parent2.keys(),
        [&](size_t i, size_t j) {
            genes[i] = genes[i].crossover(v2[j], rng);
            ++crossed;
        },
        [](size_t) {}, [&](size_t) { ++only2; });
    return only2;
}

} // namespace

size_t
Genome::crossoverInto(Genome &child, const Genome &parent1,
                      const Genome &parent2, XorWow &rng,
                      MutationCounts *counts)
{
    GENESYS_ASSERT(child.nodes_.empty() && child.connections_.empty(),
                   "crossover target genome " << child.key()
                                              << " already has genes");

    // The stream runs on a local copy of the generator, so its state
    // can live in registers instead of being stored after every draw.
    XorWow local = rng;
    long crossed = 0;
    const size_t only2 =
        crossGenes(child.nodes_, parent1.nodes_, parent2.nodes_, local,
                   crossed) +
        crossGenes(child.connections_, parent1.connections_,
                   parent2.connections_, local, crossed);
    rng = local;
    if (counts) {
        counts->crossoverOps += crossed;
        counts->cloneOps += static_cast<long>(parent1.numGenes()) - crossed;
    }
    child.nodes_.dcheckInvariants("Genome::crossover nodes");
    child.connections_.dcheckInvariants("Genome::crossover connections");
    return parent1.numGenes() + only2;
}

MutationCounts
Genome::mutate(const NeatConfig &cfg, NodeIndexer &indexer, XorWow &rng)
{
    MutationCounts counts;

    if (rng.bernoulli(cfg.nodeAddProb)) {
        if (mutateAddNode(cfg, indexer, rng) >= 0)
            counts.addOps += 3; // node + two connections
    }
    if (rng.bernoulli(cfg.nodeDeleteProb))
        counts.deleteOps += deleteNodeIfAllowed(cfg, rng);
    if (rng.bernoulli(cfg.connAddProb)) {
        if (mutateAddConnection(cfg, rng))
            ++counts.addOps;
    }
    if (rng.bernoulli(cfg.connDeleteProb))
        counts.deleteOps += mutateDeleteConnection(rng);

    counts.perturbOps += perturb(cfg, rng);
    nodes_.dcheckInvariants("Genome::mutate nodes");
    connections_.dcheckInvariants("Genome::mutate connections");
    return counts;
}

long
Genome::perturb(const NeatConfig &cfg, XorWow &rng)
{
    // One gene-op per gene, matching the hardware's gene-per-cycle
    // streaming; the flat gene arrays make this a contiguous walk, on
    // a register-resident copy of the generator (see crossoverInto).
    XorWow local = rng;
    for (NodeGene &ng : nodes_.mutableValues())
        ng.mutate(cfg, local);
    for (ConnectionGene &cg : connections_.mutableValues())
        cg.mutate(cfg, local);
    rng = local;
    return static_cast<long>(numGenes());
}

long
Genome::deleteNodeIfAllowed(const NeatConfig &cfg, XorWow &rng)
{
    // EvE's Delete Gene Engine checks the number of previously
    // deleted nodes against a threshold "to keep the genome alive"
    // (Section IV-C3).
    if (cfg.maxNodeDeletionsPerChild > 0 &&
        nodeDeletions_ >= cfg.maxNodeDeletionsPerChild) {
        return 0;
    }
    return mutateDeleteNode(cfg, rng);
}

int
Genome::mutateAddNode(const NeatConfig &cfg, NodeIndexer &indexer,
                      XorWow &rng)
{
    if (connections_.empty())
        return -1;

    // Pick a random connection to split (same index in the sorted
    // order the map iteration used). Copy its fields out before any
    // insert below reallocates the gene array.
    const auto pick = static_cast<size_t>(rng.uniformInt(
        static_cast<uint32_t>(connections_.size())));
    ConnectionGene &conn = connections_.mutableValueAt(pick);
    conn.enabled = false;
    const auto [src, dst] = conn.key;
    const double split_weight = conn.weight;

    const int new_key = indexer.next();
    nodes_.emplace(new_key, NodeGene::createNew(new_key, cfg, rng));

    // in -> new carries weight 1, new -> out carries the old weight,
    // preserving the original function at the moment of the split.
    ConnectionGene c1;
    c1.key = {src, new_key};
    c1.weight = 1.0;
    c1.enabled = true;
    ConnectionGene c2;
    c2.key = {new_key, dst};
    c2.weight = split_weight;
    c2.enabled = true;
    connections_.insert_or_assign(c1.key, c1);
    connections_.insert_or_assign(c2.key, c2);
    return new_key;
}

bool
Genome::mutateAddConnection(const NeatConfig &cfg, XorWow &rng)
{
    // Destination: any hidden or output node. Source: any node or
    // input pin, drawn as one index over the node keys followed by
    // the pins -1, -2, ..., -numInputs (no candidate list is built).
    const std::vector<int> &node_keys = nodes_.keys();
    if (node_keys.empty())
        return false;

    const auto num_nodes = static_cast<uint32_t>(node_keys.size());
    const uint32_t src_index =
        rng.uniformInt(num_nodes + static_cast<uint32_t>(cfg.numInputs));
    const int src = src_index < num_nodes
                        ? node_keys[src_index]
                        : -static_cast<int>(src_index - num_nodes) - 1;
    const int dst = node_keys[rng.uniformInt(num_nodes)];
    const ConnKey key{src, dst};

    if (connections_.count(key))
        return false;

    // Avoid connecting two output nodes directly (neat-python rule).
    const bool src_is_output = src >= 0 && src < cfg.numOutputs;
    const bool dst_is_output = dst >= 0 && dst < cfg.numOutputs;
    if (src_is_output && dst_is_output)
        return false;

    if (cfg.feedForward && createsCycle(connections_, key))
        return false;

    connections_.emplace(key, ConnectionGene::createNew(key, cfg, rng));
    return true;
}

long
Genome::mutateDeleteNode(const NeatConfig &cfg, XorWow &rng)
{
    // Hidden nodes only: outputs are structural, inputs are not genes.
    std::vector<int> hidden;
    for (int nk : nodes_.keys()) {
        if (nk >= cfg.numOutputs)
            hidden.push_back(nk);
    }
    if (hidden.empty())
        return 0;

    const int victim = hidden[rng.choiceIndex(hidden)];
    long removed = 1;
    nodes_.erase(victim);
    ++nodeDeletions_;

    // Prune dangling connections in one stable pass — in hardware
    // this is the node-ID register compare in the Delete Gene Engine
    // (Fig 7).
    removed += static_cast<long>(connections_.eraseIf(
        [victim](const ConnKey &ck, const ConnectionGene &) {
            return ck.first == victim || ck.second == victim;
        }));
    return removed;
}

long
Genome::mutateDeleteConnection(XorWow &rng)
{
    if (connections_.empty())
        return 0;
    connections_.eraseAt(static_cast<size_t>(rng.uniformInt(
        static_cast<uint32_t>(connections_.size()))));
    return 1;
}

int
Genome::renumberNewNodes(int first_local, NodeIndexer &indexer)
{
    const auto &keys = nodes_.keys();
    const auto first_new = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), first_local) -
        keys.begin());
    const int added = static_cast<int>(keys.size() - first_new);
    if (added == 0)
        return 0;
    GENESYS_ASSERT(indexer.peek() >= first_local,
                   "node indexer at " << indexer.peek()
                                      << " is behind the local keys from "
                                      << first_local);

    // The surviving local keys, ascending; the i-th becomes the i-th
    // key issued here.
    const std::vector<int> local(keys.begin() +
                                     static_cast<std::ptrdiff_t>(first_new),
                                 keys.end());
    const int first_final = indexer.peek();
    for (int i = 0; i < added; ++i)
        indexer.next();
    const auto renumber = [&](int k) {
        if (k < first_local)
            return k;
        return first_final +
               static_cast<int>(std::lower_bound(local.begin(), local.end(),
                                                 k) -
                                local.begin());
    };
    nodes_.remapKeys(renumber);
    connections_.remapKeys([&](const ConnKey &ck) {
        return ConnKey{renumber(ck.first), renumber(ck.second)};
    });
    GENESYS_DCHECK(nodes_.keyAt(first_new) == first_final &&
                       nodes_.keys().back() == first_final + added - 1,
                   "renumbered node keys of genome "
                       << key_ << " are not contiguous from "
                       << first_final);
    nodes_.dcheckInvariants("Genome::renumberNewNodes nodes");
    connections_.dcheckInvariants("Genome::renumberNewNodes connections");
    return added;
}

namespace
{

/**
 * Compatibility terms of one gene map pair: homologous attribute
 * distance plus `disjoint_coefficient` per gene in only one of them,
 * over the larger gene count. The homologous terms are summed in
 * ascending key order, so the double is the same on every call.
 */
template <typename Key, typename Gene>
double
geneDistance(const FlatGeneMap<Key, Gene> &a, const FlatGeneMap<Key, Gene> &b,
             double weight_coefficient, double disjoint_coefficient)
{
    if (a.empty() && b.empty())
        return 0.0;
    long disjoint = 0;
    double d = 0.0;
    const auto &va = a.values();
    const auto &vb = b.values();
    mergeJoinSorted(
        a.keys(), b.keys(),
        [&](size_t i, size_t j) {
            d += va[i].distance(vb[j]) * weight_coefficient;
        },
        [&](size_t) { ++disjoint; }, [&](size_t) { ++disjoint; });
    return (d + disjoint_coefficient * static_cast<double>(disjoint)) /
           static_cast<double>(std::max(a.size(), b.size()));
}

} // namespace

double
Genome::distance(const Genome &other, const NeatConfig &cfg) const
{
    // One merge-join per gene kind counts the disjoint genes on both
    // sides and accumulates homologous attribute distance.
    const double wc = cfg.compatibilityWeightCoefficient;
    const double dc = cfg.compatibilityDisjointCoefficient;
    return geneDistance(nodes_, other.nodes_, wc, dc) +
           geneDistance(connections_, other.connections_, wc, dc);
}

void
Genome::validate(const NeatConfig &cfg) const
{
    const auto &nkeys = nodes_.keys();
    for (size_t i = 0; i < nkeys.size(); ++i) {
        const NodeGene &ng = nodes_.valueAt(i);
        GENESYS_ASSERT(nkeys[i] == ng.key, "node gene key mismatch");
        GENESYS_ASSERT(nkeys[i] >= 0, "node gene with input (negative) key");
        GENESYS_ASSERT(i == 0 || nkeys[i - 1] < nkeys[i],
                       "node keys not strictly ascending");
    }
    for (int out = 0; out < cfg.numOutputs; ++out) { // outputKeys(cfg)
        GENESYS_ASSERT(nodes_.count(out),
                       "output node " << out << " missing");
    }
    const auto valid_source = [&](int k) {
        return (k < 0 && k >= -cfg.numInputs) || nodes_.contains(k);
    };
    const auto &ckeys = connections_.keys();
    for (size_t i = 0; i < ckeys.size(); ++i) {
        const ConnKey &ck = ckeys[i];
        GENESYS_ASSERT(ck == connections_.valueAt(i).key,
                       "connection gene key mismatch");
        GENESYS_ASSERT(valid_source(ck.first),
                       "dangling connection source " << ck.first);
        GENESYS_ASSERT(nodes_.contains(ck.second),
                       "dangling connection dest " << ck.second);
        GENESYS_ASSERT(i == 0 || ckeys[i - 1] < ck,
                       "connection keys not strictly ascending");
    }
    if (cfg.feedForward) {
        // The stored graph must be acyclic (over all connections,
        // enabled or not, as neat-python maintains). One Kahn-style
        // in-degree countdown over every stored connection replaces
        // the old per-connection map copy + BFS (O(C^2) copies); any
        // vertex that never resolves sits on or downstream of a
        // cycle, and the first edge whose endpoints both fail to
        // resolve is reported as the offender.
        const int num_inputs = cfg.numInputs;
        const auto index_of = [&](int key) -> size_t {
            if (key < 0) // -numInputs..-1 -> 0..numInputs-1
                return static_cast<size_t>(key + num_inputs);
            return static_cast<size_t>(num_inputs) +
                   static_cast<size_t>(
                       std::lower_bound(nkeys.begin(), nkeys.end(), key) -
                       nkeys.begin());
        };
        const size_t nv = static_cast<size_t>(num_inputs) + nkeys.size();
        // One buffer: per-vertex in-degree counts, then the stack of
        // vertex keys. Each vertex is pushed once, when its count
        // reaches zero, so the stack never holds more than nv keys.
        std::vector<int> work(2 * nv, 0);
        int *const in_deg = work.data();
        int *const stack = in_deg + nv;
        for (const ConnKey &ck : ckeys)
            ++in_deg[index_of(ck.second)];

        // Seed with every vertex that has no stored in-edge (inputs
        // always qualify: destinations are node keys).
        size_t top = 0;
        for (int i = 0; i < num_inputs; ++i)
            stack[top++] = i - num_inputs;
        for (size_t i = 0; i < nkeys.size(); ++i) {
            if (in_deg[static_cast<size_t>(num_inputs) + i] == 0)
                stack[top++] = nkeys[i];
        }
        size_t resolved_count = top;
        while (top > 0) {
            const int v = stack[--top];
            // Out-edges of v are the contiguous (v, *) range of the
            // sorted connection-key array.
            auto it = std::lower_bound(
                ckeys.begin(), ckeys.end(),
                ConnKey{v, std::numeric_limits<int>::min()});
            for (; it != ckeys.end() && it->first == v; ++it) {
                const size_t dst = index_of(it->second);
                if (--in_deg[dst] == 0) {
                    stack[top++] = it->second;
                    ++resolved_count;
                }
            }
        }
        // Kahn's countdown resolves every vertex of an acyclic graph,
        // so any vertex left over means a cycle.
        if (resolved_count != nv) {
            // The forward pass leaves cycles *and* everything
            // downstream of them unresolved (a nonzero count). Peel
            // vertices with no outgoing edge into the unresolved core
            // (failure path only), so the edge reported below
            // actually lies on a cycle — not merely behind one.
            std::vector<char> core(nv, 0);
            for (size_t v = 0; v < nv; ++v)
                core[v] = in_deg[v] != 0;
            for (bool changed = true; changed;) {
                changed = false;
                std::vector<int> out_in_core(nv, 0);
                for (const ConnKey &ck : ckeys) {
                    if (core[index_of(ck.first)] &&
                        core[index_of(ck.second)])
                        ++out_in_core[index_of(ck.first)];
                }
                for (size_t v = 0; v < nv; ++v) {
                    if (core[v] && out_in_core[v] == 0) {
                        core[v] = 0;
                        changed = true;
                    }
                }
            }
            for (const ConnKey &ck : ckeys) {
                GENESYS_ASSERT(!core[index_of(ck.first)] ||
                                   !core[index_of(ck.second)],
                               "cycle through connection ("
                                   << ck.first << "," << ck.second
                                   << ")");
            }
            panic("feed-forward genome has a cycle but no core edge "
                  "was identified");
        }
    }
}

bool
Genome::createsCycle(const ConnGeneMap &connections, ConnKey test)
{
    const auto [in, out] = test;
    if (in == out)
        return true;

    // DFS from `out`; a path back to `in` means the new edge closes a
    // cycle. Out-edges of a node are a contiguous range of the sorted
    // key array, so no adjacency structure is built. The stack and the
    // sorted visited set live in per-thread scratch, so an attempt
    // allocates nothing once the scratch has grown to the genome.
    // genesys-lint: allow(global-state, per-thread DFS scratch) - emptied
    // on entry; holds no data from one call to the next.
    thread_local struct
    {
        std::vector<int> stack;
        std::vector<int> visited;
    } scratch;
    std::vector<int> &stack = scratch.stack;
    std::vector<int> &visited = scratch.visited;
    stack.assign(1, out);
    visited.assign(1, out);
    const auto &keys = connections.keys();
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        auto it = std::lower_bound(
            keys.begin(), keys.end(),
            ConnKey{v, std::numeric_limits<int>::min()});
        for (; it != keys.end() && it->first == v; ++it) {
            const int b = it->second;
            if (b == in)
                return true;
            const auto at =
                std::lower_bound(visited.begin(), visited.end(), b);
            if (at == visited.end() || *at != b) {
                visited.insert(at, b);
                stack.push_back(b);
            }
        }
    }
    return false;
}

} // namespace genesys::neat
