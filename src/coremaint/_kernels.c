/* Compiled traversal kernels, round planner scan, block removal and edge
   lookup.

   Step-for-step port of _kernels_py.py (same visit order, same counters):
   the level kernels, plan_round's greedy scan, the block compaction and
   the edge lookup, in plain C99 with no Python API.
   _kernels_c.py compiles this file and calls it through cffi (ABI mode),
   which releases the GIL for the duration of a call, so the level tasks of
   a round run in parallel.

   Every entry point that takes vertex ids checks that they lie in 0..n-1
   before it writes anything and returns BAD_ENDPOINT otherwise; the caller
   checks dtypes, contiguity and lengths.

   Per-vertex scratch (visited, removed, slack, sup, csup) lives in an
   arena that the calling thread owns and keeps across calls, so concurrent
   tasks never share one and a task may use any of its slots.  Each call
   resets every slot it wrote (it records them on its dirty list) before it
   returns, so the next call on that thread finds the arena clean; a call
   that fails to allocate returns ALLOC_FAILED and may leave a slot written
   but not recorded, so the caller drops that arena.

   Counter layout: visited, removed, neg_touches, sup_evals, csup_evals. */

#include <stdint.h>
#include <stdlib.h>

#define UNSET (-1)

/* Error returns of the entry points (all negative). */
enum { ALLOC_FAILED = -1, BAD_ORDER = -2, BAD_ENDPOINT = -3, NOT_EDGES = -4 };

/* Do the p ids of a and of b all lie in 0..n-1? */
static int in_range(int64_t p, const int32_t *a, const int32_t *b, int64_t n)
{
    for (int64_t i = 0; i < p; i++)
        if (a[i] < 0 || a[i] >= n || b[i] < 0 || b[i] >= n)
            return 0;
    return 1;
}

typedef struct {
    int32_t *data;
    int64_t size, cap;
} Stack;

typedef struct {
    uint8_t *visited, *removed;
    int32_t *slack, *sup, *csup;
} Arena;

typedef struct {
    const int64_t *starts;
    const int32_t *lens, *pool, *cores;
    Arena a;
    int32_t k;
    int32_t *order;  /* visit order; a vertex is visited at most once */
    int64_t visits;
    Stack stack, cascade, dirty;
    int64_t *ctr;
    int err;
} Task;

/* Sets t->err instead of writing when the stack cannot grow. */
static void push(Task *t, Stack *s, int32_t v)
{
    if (s->size == s->cap) {
        int64_t cap = s->cap ? 2 * s->cap : 256;
        int32_t *p = realloc(s->data, (size_t)cap * sizeof *p);
        if (!p) {
            t->err = 1;
            return;
        }
        s->data = p;
        s->cap = cap;
    }
    s->data[s->size++] = v;
}

/* ------------------------------------------------------------------
   static peeling (bucket sort by effective degree, ties by ascending id) */

int cm_peel(int64_t n, const int64_t *starts, const int32_t *lens,
            const int32_t *pool, int32_t *out)
{
    int32_t *deg = malloc((size_t)n * sizeof *deg);
    int32_t *vert = malloc((size_t)n * sizeof *vert);
    int32_t *pos = malloc((size_t)n * sizeof *pos);
    int64_t *bin_start = NULL, *fill = NULL;
    int32_t max_deg = 0;
    int ok = deg && vert && pos;
    if (ok) {
        for (int64_t i = 0; i < n; i++) {
            deg[i] = lens[i];
            if (deg[i] > max_deg)
                max_deg = deg[i];
        }
        bin_start = calloc((size_t)max_deg + 2, sizeof *bin_start);
        fill = malloc(((size_t)max_deg + 2) * sizeof *fill);
        ok = bin_start && fill;
    }
    if (ok) {
        for (int64_t i = 0; i < n; i++)
            bin_start[deg[i] + 1]++;
        for (int32_t d = 1; d < max_deg + 2; d++)
            bin_start[d] += bin_start[d - 1];
        for (int32_t d = 0; d < max_deg + 2; d++)
            fill[d] = bin_start[d];
        for (int64_t i = 0; i < n; i++) {
            int64_t p = fill[deg[i]]++;
            vert[p] = (int32_t)i;
            pos[i] = (int32_t)p;
        }
        for (int64_t i = 0; i < n; i++) {
            int32_t v = vert[i], dv = deg[v];
            out[v] = dv;
            const int32_t *nb = pool + starts[v];
            for (int32_t j = 0; j < lens[v]; j++) {
                int32_t w = nb[j], dw = deg[w];
                if (dw > dv) {
                    int32_t pw = pos[w];
                    int32_t pf = (int32_t)bin_start[dw];
                    int32_t u = vert[pf];
                    if (u != w) {
                        vert[pw] = u;
                        pos[u] = pw;
                        vert[pf] = w;
                        pos[w] = pf;
                    }
                    bin_start[dw]++;
                    deg[w] = dw - 1;
                }
            }
        }
    }
    free(deg);
    free(vert);
    free(pos);
    free(bin_start);
    free(fill);
    return ok ? 0 : ALLOC_FAILED;
}

/* ------------------------------------------------------------------
   per-level maintenance kernels */

/* Number of u's neighbors whose core is at least u's own (cached). */
static int32_t support(Task *t, int32_t u)
{
    if (t->a.sup[u] != UNSET)
        return t->a.sup[u];
    const int32_t *nb = t->pool + t->starts[u];
    int32_t cu = t->cores[u], cnt = 0;
    for (int32_t j = 0; j < t->lens[u]; j++)
        if (t->cores[nb[j]] >= cu)
            cnt++;
    t->a.sup[u] = cnt;
    t->ctr[3]++;
    push(t, &t->dirty, u);
    return cnt;
}

/* Number of u's neighbors able to back a rise of u's core (cached). */
static int32_t constrained_support(Task *t, int32_t u)
{
    if (t->a.csup[u] != UNSET)
        return t->a.csup[u];
    const int32_t *nb = t->pool + t->starts[u];
    int32_t cu = t->cores[u], cnt = 0;
    for (int32_t j = 0; j < t->lens[u]; j++) {
        int32_t w = nb[j], cw = t->cores[w];
        if (cw > cu)
            cnt++;
        else if (cw == cu && support(t, w) > cu)
            cnt++;
    }
    t->a.csup[u] = cnt;
    t->ctr[4]++;
    push(t, &t->dirty, u);
    return cnt;
}

static void mark_visited(Task *t, int32_t v)
{
    t->a.visited[v] = 1;
    t->ctr[0]++;
    t->order[t->visits++] = v;
    push(t, &t->dirty, v);
}

static void mark_removed(Task *t, int32_t v)
{
    t->a.removed[v] = 1;
    t->ctr[1]++;
    push(t, &t->cascade, v);
}

/* Insertion flavor of the negative cascade: a vertex whose slack falls to
   exactly the level is ruled out in turn.  Untouched vertices may be
   driven negative, which later seeding adds back in. */
static void rule_out_cascade(Task *t, int32_t r)
{
    Arena a = t->a;
    int32_t k = t->k;
    t->cascade.size = 0;
    mark_removed(t, r);
    while (t->cascade.size && !t->err) {
        int32_t v = t->cascade.data[--t->cascade.size];
        const int32_t *nb = t->pool + t->starts[v];
        for (int32_t j = 0; j < t->lens[v]; j++) {
            int32_t w = nb[j];
            if (t->cores[w] != k)
                continue;
            if (!a.visited[w] && a.sup[w] == UNSET && a.slack[w] == 0)
                push(t, &t->dirty, w);
            a.slack[w]--;
            t->ctr[2]++;
            if (a.slack[w] == k && !a.removed[w])
                mark_removed(t, w);
        }
    }
}

/* Deletion flavor: same-level neighbors are seeded with their support on
   first touch, then decremented; falling below the level removes them. */
static void drop_cascade(Task *t, int32_t r)
{
    Arena a = t->a;
    int32_t k = t->k;
    t->cascade.size = 0;
    mark_removed(t, r);
    while (t->cascade.size && !t->err) {
        int32_t v = t->cascade.data[--t->cascade.size];
        const int32_t *nb = t->pool + t->starts[v];
        for (int32_t j = 0; j < t->lens[v]; j++) {
            int32_t w = nb[j];
            if (t->cores[w] != k)
                continue;
            if (!a.visited[w]) {
                mark_visited(t, w);
                a.slack[w] += support(t, w);
            }
            a.slack[w]--;
            t->ctr[2]++;
            if (a.slack[w] < k && !a.removed[w])
                mark_removed(t, w);
        }
    }
}

static void delete_check(Task *t, int32_t r)
{
    if (!t->a.visited[r]) {
        mark_visited(t, r);
        t->a.slack[r] = support(t, r);
    }
    if (!t->a.removed[r] && t->a.slack[r] < t->k)
        drop_cascade(t, r);
}

/* Keeps, in visit order, the visited vertices whose removed flag equals
   keep_removed; resets every touched arena slot; frees the work stacks.
   Returns the kept count (the ids are left at the front of t->order), or
   ALLOC_FAILED when a stack could not grow. */
static int64_t finish(Task *t, int keep_removed)
{
    Arena a = t->a;
    int64_t cnt = 0;
    for (int64_t i = 0; i < t->visits; i++) {
        int32_t v = t->order[i];
        if ((a.removed[v] != 0) == keep_removed)
            t->order[cnt++] = v;
    }
    for (int64_t i = 0; i < t->dirty.size; i++) {
        int32_t v = t->dirty.data[i];
        a.visited[v] = 0;
        a.removed[v] = 0;
        a.slack[v] = 0;
        a.sup[v] = UNSET;
        a.csup[v] = UNSET;
    }
    free(t->stack.data);
    free(t->cascade.data);
    free(t->dirty.data);
    return t->err ? ALLOC_FAILED : cnt;
}

/* Vertices of core level k that rise after the level's p edges (eu, ev)
   were inserted into the adjacency arrays of the n vertices.  Returns their
   count and leaves them, in visit order, at the front of moved (room for
   one id per vertex); ctr receives the five counters. */
int64_t cm_insert_level(int64_t n, const int64_t *starts, const int32_t *lens,
                        const int32_t *pool, const int32_t *cores, int32_t k,
                        int64_t p, const int32_t *eu, const int32_t *ev,
                        const Arena *arena, int32_t *moved, int64_t *ctr)
{
    if (!in_range(p, eu, ev, n))
        return BAD_ENDPOINT;
    Task t = {starts, lens, pool, cores, *arena, k, moved, 0, {0}, {0}, {0},
              ctr, 0};
    Arena a = t.a;
    for (int64_t i = 0; i < p && !t.err; i++) {
        int32_t r = cores[eu[i]] >= cores[ev[i]] ? ev[i] : eu[i];
        if (a.visited[r] || a.removed[r])
            continue;
        int32_t c = constrained_support(&t, r);
        a.slack[r] = a.slack[r] >= 0 ? c : a.slack[r] + c;
        mark_visited(&t, r);
        t.stack.size = 0;
        push(&t, &t.stack, r);
        while (t.stack.size && !t.err) {
            int32_t v = t.stack.data[--t.stack.size];
            if (a.slack[v] > k) {
                const int32_t *nb = pool + starts[v];
                for (int32_t j = 0; j < lens[v]; j++) {
                    int32_t w = nb[j];
                    if (cores[w] == k && !a.visited[w]
                            && support(&t, w) > k) {
                        mark_visited(&t, w);
                        a.slack[w] += constrained_support(&t, w);
                        push(&t, &t.stack, w);
                    }
                }
            } else if (!a.removed[v]) {
                rule_out_cascade(&t, v);
            }
        }
    }
    return finish(&t, 0);
}

/* Vertices of core level k that fall after the level's p edges (eu, ev)
   were deleted from the adjacency arrays.  Inputs and outputs as
   cm_insert_level. */
int64_t cm_delete_level(int64_t n, const int64_t *starts, const int32_t *lens,
                        const int32_t *pool, const int32_t *cores, int32_t k,
                        int64_t p, const int32_t *eu, const int32_t *ev,
                        const Arena *arena, int32_t *moved, int64_t *ctr)
{
    if (!in_range(p, eu, ev, n))
        return BAD_ENDPOINT;
    Task t = {starts, lens, pool, cores, *arena, k, moved, 0, {0}, {0}, {0},
              ctr, 0};
    for (int64_t i = 0; i < p && !t.err; i++) {
        int32_t a = eu[i], b = ev[i];
        if (cores[a] != cores[b]) {
            delete_check(&t, cores[a] >= cores[b] ? b : a);
        } else {
            delete_check(&t, a);
            delete_check(&t, b);
        }
    }
    return finish(&t, 1);
}

/* ------------------------------------------------------------------
   round planning and edge removal */

enum { PENDING = 0, SELECTED = 1, DROPPED = 2 };

/* plan_round's greedy scan over the m live pairs (us, vs) in canonical
   order; cores covers the n vertices.  A pair is left pending when one of
   its endpoints sits at the pair's level (the lower endpoint core) and is
   already covered by an earlier selection; otherwise it is dropped if
   exists (insert mode; NULL otherwise) marks it, or else selected, and
   covers each endpoint at its level.  Writes status[j]; returns 0,
   BAD_ENDPOINT, or ALLOC_FAILED when the covered marks cannot be
   allocated. */
int cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                 const int32_t *cores, int64_t n, const uint8_t *exists,
                 int8_t *status)
{
    if (!in_range(m, us, vs, n))
        return BAD_ENDPOINT;
    uint8_t *covered = malloc(n ? (size_t)n : 1);
    if (!covered)
        return ALLOC_FAILED;
    for (int64_t j = 0; j < m; j++)  /* only endpoint marks are read */
        covered[us[j]] = covered[vs[j]] = 0;
    for (int64_t j = 0; j < m; j++) {
        int32_t u = us[j], v = vs[j], cu = cores[u], cv = cores[v];
        int32_t k = cu < cv ? cu : cv;
        if ((cu == k && covered[u]) || (cv == k && covered[v])) {
            status[j] = PENDING;
        } else if (exists && exists[j]) {
            status[j] = DROPPED;
        } else {
            status[j] = SELECTED;
            if (cu == k)
                covered[u] = 1;
            if (cv == k)
                covered[v] = 1;
        }
    }
    free(covered);
    return 0;
}

/* Is x among the c ascending values t? */
static int contains(const int32_t *t, int64_t c, int32_t x)
{
    if (c <= 8) {  /* most sources lose one or two entries a round */
        int hit = 0;
        for (int64_t i = 0; i < c; i++)
            hit |= t[i] == x;
        return hit;
    }
    int64_t lo = 0, hi = c;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < c && t[lo] == x;
}

/* End of the group of equal sources that starts at i. */
static int64_t group_end(const int32_t *src, int64_t m, int64_t i)
{
    int64_t e = i + 1;
    while (e < m && src[e] == src[i])
        e++;
    return e;
}

/* Removes the m directed entries (src[i], dst[i]) from the adjacency
   blocks of the n vertices.  The pairs come grouped by ascending source,
   with ascending targets in each group.  Each touched block is compacted in
   place and keeps the order of its remaining entries.  Returns 0; writing
   nothing, BAD_ENDPOINT, BAD_ORDER if the pairs are not in that order, or
   NOT_EDGES unless they are distinct entries of the blocks. */
int cm_remove_edges(int64_t m, const int32_t *src, const int32_t *dst,
                    int64_t n, const int64_t *starts, int32_t *lens,
                    int32_t *pool)
{
    if (!in_range(m, src, dst, n))
        return BAD_ENDPOINT;
    for (int64_t i = 0, e; i < m; i = e) {
        e = group_end(src, m, i);
        if (i && src[i - 1] > src[i])
            return BAD_ORDER;
        for (int64_t j = i + 1; j < e; j++)
            if (dst[j] <= dst[j - 1])
                return dst[j] == dst[j - 1] ? NOT_EDGES : BAD_ORDER;
        /* block entries are distinct, so matching e - i of them means
           every target is present */
        const int32_t *nb = pool + starts[src[i]];
        int64_t found = 0;
        for (int32_t s = 0; s < lens[src[i]] && found < e - i; s++)
            found += contains(dst + i, e - i, nb[s]);
        if (found != e - i)
            return NOT_EDGES;
    }
    for (int64_t i = 0, e; i < m; i = e) {
        e = group_end(src, m, i);
        int32_t *nb = pool + starts[src[i]];
        int32_t kept = 0;
        for (int32_t s = 0; s < lens[src[i]]; s++)
            if (!contains(dst + i, e - i, nb[s]))
                nb[kept++] = nb[s];
        lens[src[i]] = kept;
    }
    return 0;
}

/* out[i] = is vs[i] in the block of us[i], for the m pairs over the n
   vertices.  Returns 0, or BAD_ENDPOINT, writing nothing. */
int cm_has_edges(int64_t m, const int32_t *us, const int32_t *vs, int64_t n,
                 const int64_t *starts, const int32_t *lens,
                 const int32_t *pool, uint8_t *out)
{
    if (!in_range(m, us, vs, n))
        return BAD_ENDPOINT;
    for (int64_t i = 0; i < m; i++) {
        const int32_t *nb = pool + starts[us[i]];
        int32_t v = vs[i], len = lens[us[i]], s = 0;
        while (s < len && nb[s] != v)
            s++;
        out[i] = s < len;
    }
    return 0;
}
