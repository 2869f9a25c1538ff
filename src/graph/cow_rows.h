// Copy-on-write row storage: a sequence of rows (per-node lists) kept in
// fixed 16-row pages that copies share, so copying a whole adjacency
// structure costs one reference per page and a later write clones only
// the page it lands on.
//
// The service layer publishes a versioned snapshot of the maintained
// topology after every update batch. With every per-node list in
// CowRows, a snapshot shares all pages with the live state, and the
// next incremental patch clones just the pages of its dirty region.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace geospanner::graph {

/// A sequence of rows of T with copy-on-write pages.
///
/// * A page holds 16 consecutive rows in one flat buffer (row r spans
///   `data[end[r-1], end[r])`), so cloning a page is two allocations and
///   a memcpy, not one allocation per row.
/// * Reads go through the const operator[], which returns a span into
///   the page: `pages_[i >> 4]->row(i & 15)`. A span stays valid until
///   the next write to this container.
/// * Writes go through replace/assign/insert/erase/push_back, which first
///   clone the page when another CowRows still references it. Copies are
///   therefore independent values, and operator== compares content
///   regardless of how pages are shared.
///
/// Pages carry their own atomic reference count (instead of a
/// shared_ptr control block) so that copying and destroying a container
/// can prefetch the counts ahead of the atomic updates: a snapshot of a
/// 20k-node topology touches ~11k counts that an apply has just evicted
/// from cache.
///
/// Thread-safety: distinct CowRows objects may be read, written, copied
/// and destroyed on different threads even when they share pages. One
/// object follows the usual container rule — concurrent const reads, or
/// one writer. Writers on several threads must not share one object,
/// even for distinct rows, because a clone replaces the page pointer.
template <class T>
class CowRows {
  public:
    static constexpr std::size_t kPageShift = 4;
    static constexpr std::size_t kPageRows = std::size_t{1} << kPageShift;

    CowRows() = default;

    /// `n` empty rows on fresh pages.
    explicit CowRows(std::size_t n) { grow(n); }

    /// Rows in CSR form — row i is `data[offsets[i], offsets[i + 1])` —
    /// copied into fresh pages directly, one slice per page and no
    /// per-row uniqueness checks: the bulk-construction path.
    CowRows(std::span<const std::size_t> offsets, std::span<const T> data)
        : size_(offsets.empty() ? 0 : offsets.size() - 1) {
        pages_.reserve(page_count(size_));
        for (std::size_t first = 0; first < size_; first += kPageRows) {
            const std::size_t last = std::min(first + kPageRows, size_);
            const std::size_t base = offsets[first];
            Page* page = new Page;
            page->data.assign(data.begin() + static_cast<std::ptrdiff_t>(base),
                              data.begin() + static_cast<std::ptrdiff_t>(offsets[last]));
            for (std::size_t r = 0; r < kPageRows; ++r) {
                page->end[r] =
                    static_cast<std::uint32_t>(offsets[std::min(first + r + 1, last)] - base);
            }
            pages_.push_back(page);
        }
    }

    /// The same from one vector per row, for builders that fill rows out
    /// of order.
    explicit CowRows(const std::vector<std::vector<T>>& rows) {
        std::vector<std::size_t> offsets{0};
        std::vector<T> data;
        for (const auto& row : rows) {
            data.insert(data.end(), row.begin(), row.end());
            offsets.push_back(data.size());
        }
        *this = CowRows(offsets, data);
    }

    CowRows(const CowRows& other) : size_(other.size_) {
        pages_.reserve(other.pages_.size());
        for (std::size_t p = 0; p < other.pages_.size(); ++p) {
            if (p + kPrefetchAhead < other.pages_.size()) {
                prefetch(other.pages_[p + kPrefetchAhead]);
            }
            other.pages_[p]->refs.fetch_add(1, std::memory_order_relaxed);
            pages_.push_back(other.pages_[p]);
        }
    }

    CowRows(CowRows&& other) noexcept
        : pages_(std::move(other.pages_)), size_(std::exchange(other.size_, 0)) {}

    CowRows& operator=(CowRows other) noexcept {
        std::swap(pages_, other.pages_);
        std::swap(size_, other.size_);
        return *this;
    }

    ~CowRows() {
        for (std::size_t p = 0; p < pages_.size(); ++p) {
            if (p + kPrefetchAhead < pages_.size()) prefetch(pages_[p + kPrefetchAhead]);
            release(pages_[p]);
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    [[nodiscard]] std::span<const T> operator[](std::size_t i) const {
        assert(i < size_);
        return pages_[i >> kPageShift]->row(i & kRowMask);
    }

    /// Replaces the `count` elements of row i that start at position
    /// `pos` with `values` (which must not alias this container).
    void replace(std::size_t i, std::size_t pos, std::size_t count,
                 std::span<const T> values) {
        assert(i < size_ && pos + count <= (*this)[i].size());
        Page& page = own(i >> kPageShift);
        const std::size_t r = i & kRowMask;
        const auto first = static_cast<std::ptrdiff_t>(page.begin(r) + pos);
        const auto at = page.data.begin() + first;
        if (values.size() > count) {
            page.data.insert(at + static_cast<std::ptrdiff_t>(count), values.size() - count,
                             T{});
        } else {
            page.data.erase(at + static_cast<std::ptrdiff_t>(values.size()),
                            at + static_cast<std::ptrdiff_t>(count));
        }
        std::copy(values.begin(), values.end(), page.data.begin() + first);
        page.shift_ends(r, static_cast<std::ptrdiff_t>(values.size()) -
                               static_cast<std::ptrdiff_t>(count));
    }

    /// Replaces row i with `row` (which must not alias this container).
    void assign(std::size_t i, std::span<const T> row) {
        replace(i, 0, (*this)[i].size(), row);
    }

    /// Inserts `v` at position `pos` of row i.
    void insert(std::size_t i, std::size_t pos, T v) { replace(i, pos, 0, {&v, 1}); }

    /// Removes the element at position `pos` of row i.
    void erase(std::size_t i, std::size_t pos) { replace(i, pos, 1, {}); }

    /// Appends `row` as the last row.
    void push_back(std::span<const T> row = {}) {
        grow(size_ + 1);
        if (!row.empty()) assign(size_ - 1, row);
    }

    /// Pages this container shares with another holder (a diagnostic
    /// for tests).
    [[nodiscard]] std::size_t shared_pages() const noexcept {
        std::size_t c = 0;
        for (const Page* page : pages_) {
            c += page->refs.load(std::memory_order_relaxed) > 1 ? 1 : 0;
        }
        return c;
    }

    friend bool operator==(const CowRows& a, const CowRows& b) {
        if (a.size_ != b.size_) return false;
        for (std::size_t p = 0; p < a.pages_.size(); ++p) {
            const Page* x = a.pages_[p];
            const Page* y = b.pages_[p];
            if (x != y && (x->end != y->end || x->data != y->data)) return false;
        }
        return true;
    }

  private:
    static constexpr std::size_t kRowMask = kPageRows - 1;
    static constexpr std::size_t kPrefetchAhead = 16;

    struct Page {
        std::atomic<std::uint32_t> refs{1};
        /// end[r]: one past row r's last element in `data`.
        std::array<std::uint32_t, kPageRows> end{};
        std::vector<T> data;

        Page() = default;
        Page(const Page& other) : end(other.end), data(other.data) {}

        [[nodiscard]] std::size_t begin(std::size_t r) const { return r == 0 ? 0 : end[r - 1]; }
        [[nodiscard]] std::span<const T> row(std::size_t r) const {
            const std::size_t first = begin(r);
            return {data.data() + first, end[r] - first};
        }
        void shift_ends(std::size_t r, std::ptrdiff_t delta) {
            for (std::size_t k = r; k < kPageRows; ++k) {
                end[k] = static_cast<std::uint32_t>(static_cast<std::ptrdiff_t>(end[k]) + delta);
            }
        }
    };

    static std::size_t page_count(std::size_t n) { return (n + kRowMask) >> kPageShift; }

    /// Grows to `n` rows. Rows past size() in the last page are always
    /// empty, so the new rows need no write and page-wise equality stays
    /// row-wise.
    void grow(std::size_t n) {
        assert(n >= size_);
        while (pages_.size() < page_count(n)) pages_.push_back(new Page);
        size_ = n;
    }

    static void prefetch(const Page* page) { __builtin_prefetch(page, 1); }

    /// Drops one reference. The release half of acq_rel publishes this
    /// holder's reads of the page to whichever thread later sees the
    /// count reach 1 (own()) or 0 (deletion here).
    static void release(Page* page) {
        if (page->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete page;
    }

    /// Page `p`, cloned first if any other CowRows still references it.
    ///
    /// The uniqueness check is an acquire load. It pairs with the
    /// release decrement of a reader on another thread dropping its last
    /// handle to the page, so that reader's earlier reads happen before
    /// our in-place writes once we observe the count at 1 — without it,
    /// a writer could reuse a page a reader is still finishing with.
    Page& own(std::size_t p) {
        Page*& page = pages_[p];
        if (page->refs.load(std::memory_order_acquire) != 1) {
            Page* copy = new Page(*page);
            release(page);
            page = copy;
        }
        return *page;
    }

    std::vector<Page*> pages_;
    std::size_t size_ = 0;
};

}  // namespace geospanner::graph
