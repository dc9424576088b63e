/**
 * @file
 * FlatGeneMap — flat, key-sorted SoA gene storage. A genome's gene
 * collections used to be std::map; profiling showed map iteration
 * dominating plan compile (and crossover/distance/encode all walk the
 * genes too), so the genes now live in two parallel vectors: a dense
 * sorted key array (what binary searches and merge-joins touch) and a
 * matching gene array. Iteration order is ascending key — exactly the
 * order std::map provided — which keeps every consumer, and the
 * evolution RNG stream, bit-identical.
 *
 * This mirrors the hardware's Genome Buffer: genes are stored as a
 * flat, id-sorted stream (Fig 6), not a tree.
 */

#ifndef GENESYS_NEAT_FLAT_GENE_MAP_HH
#define GENESYS_NEAT_FLAT_GENE_MAP_HH

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"

namespace genesys::neat
{

/**
 * Sorted-vector map from gene key to gene, with an std::map-shaped
 * interface (find/count/at/emplace/erase, pair-yielding iterators) so
 * call sites read the same — plus direct SoA access (keys()/values())
 * for the hot paths that want contiguous walks.
 *
 * Invariant: keys_ is strictly ascending and keys_[i] always
 * describes values_[i].
 */
template <typename Key, typename Gene>
class FlatGeneMap
{
  public:
    /**
     * Iterator yielding std::pair<const Key &, Gene &> proxies, so
     * `for (const auto &[k, g] : map)` and `it->second` keep working.
     * (Mutable iteration binds with `auto &&[k, g]` — the proxy pair
     * is a prvalue.)
     */
    template <bool IsConst>
    class Iter
    {
        using MapT =
            std::conditional_t<IsConst, const FlatGeneMap, FlatGeneMap>;
        using GeneRef =
            std::conditional_t<IsConst, const Gene &, Gene &>;

      public:
        using reference = std::pair<const Key &, GeneRef>;
        using value_type = std::pair<Key, Gene>;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        /** operator-> support: holds the proxy pair by value. */
        struct ArrowProxy
        {
            reference ref;
            reference *operator->() { return &ref; }
        };
        using pointer = ArrowProxy;

        Iter() = default;
        Iter(MapT *map, std::size_t idx) : map_(map), idx_(idx) {}
        /** iterator -> const_iterator conversion. */
        template <bool C = IsConst, typename = std::enable_if_t<C>>
        Iter(const Iter<false> &o) : map_(o.map_), idx_(o.idx_)
        {
        }

        reference operator*() const
        {
            return {map_->keys_[idx_], map_->values_[idx_]};
        }
        ArrowProxy operator->() const { return {**this}; }

        Iter &
        operator++()
        {
            ++idx_;
            return *this;
        }
        Iter
        operator++(int)
        {
            Iter tmp = *this;
            ++idx_;
            return tmp;
        }

        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a.idx_ == b.idx_;
        }
        friend bool
        operator!=(const Iter &a, const Iter &b)
        {
            return a.idx_ != b.idx_;
        }

        /** Position in the SoA arrays. */
        std::size_t index() const { return idx_; }

      private:
        MapT *map_ = nullptr;
        std::size_t idx_ = 0;

        friend class FlatGeneMap;
        friend class Iter<true>;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    // --- capacity --------------------------------------------------------
    std::size_t size() const { return keys_.size(); }
    bool empty() const { return keys_.empty(); }

    void
    reserve(std::size_t n)
    {
        keys_.reserve(n);
        values_.reserve(n);
    }

    void
    clear()
    {
        keys_.clear();
        values_.clear();
    }

    // --- iteration -------------------------------------------------------
    iterator begin() { return {this, 0}; }
    iterator end() { return {this, keys_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    // --- lookup ----------------------------------------------------------
    const_iterator
    find(const Key &key) const
    {
        const std::size_t i = lowerBound(key);
        return {this, i < keys_.size() && keys_[i] == key ? i
                                                          : keys_.size()};
    }

    iterator
    find(const Key &key)
    {
        const std::size_t i = lowerBound(key);
        return {this, i < keys_.size() && keys_[i] == key ? i
                                                          : keys_.size()};
    }

    std::size_t count(const Key &key) const { return contains(key) ? 1 : 0; }

    bool
    contains(const Key &key) const
    {
        const std::size_t i = lowerBound(key);
        return i < keys_.size() && keys_[i] == key;
    }

    const Gene &
    at(const Key &key) const
    {
        const std::size_t i = lowerBound(key);
        GENESYS_ASSERT(i < keys_.size() && keys_[i] == key,
                       "FlatGeneMap::at: key not found");
        return values_[i];
    }

    Gene &
    at(const Key &key)
    {
        const std::size_t i = lowerBound(key);
        GENESYS_ASSERT(i < keys_.size() && keys_[i] == key,
                       "FlatGeneMap::at: key not found");
        return values_[i];
    }

    // --- insertion -------------------------------------------------------
    /**
     * Insert (key, gene) keeping sort order; no-op if key exists. A
     * key past the current last one appends without a search (as
     * crossover's merge-join inserts); any other key shifts every
     * later gene.
     */
    std::pair<iterator, bool>
    emplace(const Key &key, Gene gene)
    {
        if (keys_.empty() || keys_.back() < key) {
            keys_.push_back(key);
            values_.push_back(std::move(gene));
            return {iterator{this, keys_.size() - 1}, true};
        }
        const std::size_t i = lowerBound(key);
        if (i < keys_.size() && keys_[i] == key)
            return {iterator{this, i}, false};
        keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
        values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i),
                       std::move(gene));
        return {iterator{this, i}, true};
    }

    /**
     * Replace the contents with `n` entries that `fill(keys, genes)`
     * writes in place, into spans over the resized arrays. It must
     * write every slot, in any order, leaving the keys strictly
     * ascending: for a layout whose key order is a closed form, this
     * streams each gene straight into its slot with no sort.
     */
    template <typename Fill>
    void
    assignInPlace(std::size_t n, Fill fill)
    {
        clear();
        keys_.resize(n);
        values_.resize(n);
        fill(std::span<Key>(keys_), std::span<Gene>(values_));
    }

    /** Insert or overwrite. */
    std::pair<iterator, bool>
    insert_or_assign(const Key &key, Gene gene)
    {
        const std::size_t i = lowerBound(key);
        if (i < keys_.size() && keys_[i] == key) {
            values_[i] = std::move(gene);
            return {iterator{this, i}, false};
        }
        keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
        values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i),
                       std::move(gene));
        return {iterator{this, i}, true};
    }

    // --- removal ---------------------------------------------------------
    std::size_t
    erase(const Key &key)
    {
        const std::size_t i = lowerBound(key);
        if (i >= keys_.size() || keys_[i] != key)
            return 0;
        eraseAt(i);
        return 1;
    }

    /** Erase by iterator; returns the iterator to the next element. */
    iterator
    erase(const_iterator pos)
    {
        eraseAt(pos.index());
        return {this, pos.index()};
    }

    /** Erase the i-th (key-sorted) entry. */
    void
    eraseAt(std::size_t i)
    {
        keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
        values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    /**
     * Erase every entry whose (key, gene) satisfies `pred`, in one
     * stable pass over both arrays. Returns the number removed.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t out = 0;
        for (std::size_t in = 0; in < keys_.size(); ++in) {
            if (pred(keys_[in], values_[in]))
                continue;
            if (out != in) {
                keys_[out] = std::move(keys_[in]);
                values_[out] = std::move(values_[in]);
            }
            ++out;
        }
        const std::size_t removed = keys_.size() - out;
        keys_.resize(out);
        values_.resize(out);
        return removed;
    }

    // --- SoA access ------------------------------------------------------
    /** The sorted key array (contiguous; binary-search / merge-join). */
    const std::vector<Key> &keys() const { return keys_; }
    /** The gene array, parallel to keys(). */
    const std::vector<Gene> &values() const { return values_; }

    /**
     * Mutable view of the gene array for in-place attribute
     * mutation. A span, not the vector itself, so callers can write
     * elements but never resize values_ out from under keys_ — the
     * parallel-array invariant stays enforceable. Callers must not
     * touch any key material embedded in the genes; the sorted-key
     * invariant is keyed off keys_.
     */
    std::span<Gene> mutableValues() { return {values_}; }

    /**
     * Replace every key k (and the key embedded in its gene) with
     * f(k). `f` must be strictly increasing over the stored keys, so
     * the arrays stay sorted without a re-sort.
     */
    template <typename F>
    void
    remapKeys(F f)
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            keys_[i] = f(keys_[i]);
            values_[i].key = keys_[i];
        }
    }

    const Key &keyAt(std::size_t i) const { return keys_[i]; }
    const Gene &valueAt(std::size_t i) const { return values_[i]; }
    Gene &mutableValueAt(std::size_t i) { return values_[i]; }

    /**
     * Walk the full structure verifying the parallel-array invariant:
     * keys_ strictly ascending, and (for gene types that embed their
     * key) values_[i].key agreeing with keys_[i]. O(n), so DCHECK-only
     * — a no-op unless this is a GENESYS_CHECKED build. `what` names
     * the call site in the panic message.
     */
    void
    dcheckInvariants(const char *what) const
    {
#ifdef GENESYS_CHECKED
        GENESYS_DCHECK(keys_.size() == values_.size(),
                       what << ": parallel arrays diverge (" << keys_.size()
                            << " keys, " << values_.size() << " genes)");
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (i + 1 < keys_.size()) {
                GENESYS_DCHECK(keys_[i] < keys_[i + 1],
                               what << ": keys not strictly ascending at"
                                    << " index " << i);
            }
            if constexpr (requires(const Gene &g) { g.key == Key{}; }) {
                GENESYS_DCHECK(values_[i].key == keys_[i],
                               what << ": embedded gene key disagrees with"
                                    << " sorted key array at index " << i);
            }
        }
#else
        (void)what;
#endif
    }

  private:
    std::size_t
    lowerBound(const Key &key) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(keys_.begin(), keys_.end(), key) -
            keys_.begin());
    }

    std::vector<Key> keys_;
    std::vector<Gene> values_;
};

/**
 * One linear merge pass over two sorted key arrays. Calls
 * `onMatch(i, j)` for keys present in both (in ascending key order —
 * the order every gene map iterates, so RNG and floating-point
 * accumulation sequences are preserved), `onOnlyA(i)` for keys only
 * in `a`, `onOnlyB(j)` for keys only in `b`. This is the shared
 * cursor logic behind crossover, compatibility distance and aligned
 * stream length.
 */
template <typename Key, typename OnMatch, typename OnOnlyA,
          typename OnOnlyB>
void
mergeJoinSorted(const std::vector<Key> &a, const std::vector<Key> &b,
                OnMatch onMatch, OnOnlyA onOnlyA, OnOnlyB onOnlyB)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            onMatch(i, j);
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            onOnlyA(i);
            ++i;
        } else {
            onOnlyB(j);
            ++j;
        }
    }
    for (; i < a.size(); ++i)
        onOnlyA(i);
    for (; j < b.size(); ++j)
        onOnlyB(j);
}

} // namespace genesys::neat

#endif // GENESYS_NEAT_FLAT_GENE_MAP_HH
