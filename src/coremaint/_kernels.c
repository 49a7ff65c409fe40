/* The compiled kernel backend: the contract is in _kernels_py.py's
   docstring, and this file is a step-for-step port of that lane (same
   visit order, same counters) in plain C11 with no Python API; the
   edge-list parser reads the same subset of inputs as the Python lane's,
   in one pass.  _kernels_c.py compiles this file (with -pthread) and
   calls it through cffi (ABI mode), which releases the GIL for the
   duration of a call.

   cm_run_levels is the only entry point into the level kernels: it runs
   all level tasks of a round in one call.  The calling thread claims the
   heaviest level, wakes helpers for the rest, and runs it; it and the
   persistent helper threads, started on first need and kept for the life
   of the process, then claim the other levels from an atomic cursor.  A
   fork() child forgets the parent's helpers and starts its own.  Every
   insert task ends with a peel of its risers and reports how many
   survive (see batch.py).

   Every entry point that takes vertex ids checks that they lie in 0..n-1
   before it writes anything and returns BAD_ENDPOINT otherwise (a round
   checks each level's edges before it runs that level, and also that they
   lie at the level: BAD_LEVEL); the caller checks dtypes, contiguity and
   lengths.

   A round travels as one flat plan: its pairs grouped by ascending level
   (canonical order within a level) in two id arrays, plus the levels and
   their offsets.  cm_plan_scan writes it, and cm_remove_edges and
   cm_run_levels read it as it is.

   This file owns every level-kernel arena: the calling thread passes in
   its own (an OwnArena that Python only holds and frees with
   cm_arena_drop), and each helper keeps one.  An arena holds every slot
   and list a level task uses, each sized by its bound, so a task
   allocates only when it grows its arena, and once that succeeds it
   cannot fail.  Each task records the slots it writes on its dirty list
   and resets them before it returns.

   A round reads and keeps each vertex's support, the caller's array: a
   task counts its own pairs in, at its own level only, and once every
   task is done the calling thread brings it up to date for the moved
   vertices (shift_support) or, when the round does not commit, counts
   the pairs out again. */

#define _POSIX_C_SOURCE 200809L

#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define UNSET (-1)

/* Error returns of the entry points (all negative). */
enum { ALLOC_FAILED = -1, BAD_ORDER = -2, BAD_ENDPOINT = -3, NOT_EDGES = -4,
       NOT_MINE = -5, BAD_LEVEL = -6 };

/* Do the p ids of a and of b all lie in 0..n-1? */
static int in_range(int64_t p, const int32_t *a, const int32_t *b, int64_t n)
{
    for (int64_t i = 0; i < p; i++)
        if (a[i] < 0 || a[i] >= n || b[i] < 0 || b[i] >= n)
            return 0;
    return 1;
}

/* Is k the lower endpoint core of each of the p edges (a, b)?  Then a
   level task visits only vertices of core k, so the tasks of one round
   move disjoint vertex sets. */
static int at_level(int64_t p, const int32_t *a, const int32_t *b,
                    const int32_t *cores, int32_t k)
{
    for (int64_t i = 0; i < p; i++) {
        int32_t ca = cores[a[i]], cb = cores[b[i]];
        if ((ca < cb ? ca : cb) != k)
            return 0;
    }
    return 1;
}

/* Sorts the c keys at a stably by their bytes lowest..7 (all of a key
   when lowest is 0), with tmp (room for c keys) as scratch: one counting
   pass per such byte in which the keys differ, least significant first,
   so a key's constant high bytes cost no pass. */
static void radix_sort(uint64_t *a, uint64_t *tmp, int64_t c, int lowest)
{
    int64_t count[8][256] = {{0}};
    for (int64_t i = 0; i < c; i++)
        for (int d = 0; d < 8; d++)
            count[d][a[i] >> (8 * d) & 255]++;
    uint64_t *src = a, *dst = tmp;
    for (int d = lowest; d < 8 && c; d++) {
        int64_t *at = count[d], sum = 0;
        if (at[src[0] >> (8 * d) & 255] == c)
            continue;  /* every key has this byte */
        for (int b = 0; b < 256; b++) {
            int64_t here = at[b];
            at[b] = sum;
            sum += here;
        }
        for (int64_t i = 0; i < c; i++)
            dst[at[src[i] >> (8 * d) & 255]++] = src[i];
        uint64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)c * sizeof *a);
}

/* A level task's per-vertex slots (reset between tasks) and its lists,
   each with room for its bound on cap vertices (see own_fit).  A vertex
   enters order, stack and cascade at most once per task: it is visited
   once, pushed on stack when visited, and on cascade when removed.  It
   enters dirty at most three times: when its csup is cached, when it is
   visited, and when a cascade first touches it unvisited (its slack then
   only falls, so it leaves 0 once). */
typedef struct {
    uint8_t *visited, *removed;
    int32_t *slack, *csup;
    int32_t *order, *stack, *cascade, *dirty;
} Arena;

/* An arena for cap vertices; all zero before its first growth. */
typedef struct {
    Arena a;
    int64_t cap;
} OwnArena;

typedef struct {
    const int64_t *starts;
    const int32_t *lens, *pool, *cores, *support;
    Arena a;
    int32_t k;
    int64_t visits, cascaded, dirtied;  /* entries of a.order, a.cascade
                                           and a.dirty */
    int64_t *ctr;
} Task;

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

/* out[v] = v's support, the number of its neighbours whose core is at
   least its own, for each of the n vertices. */
void cm_count_support(int64_t n, const int64_t *starts, const int32_t *lens,
                      const int32_t *pool, const int32_t *cores,
                      int32_t *out)
{
    for (int64_t v = 0; v < n; v++) {
        const int32_t *nb = pool + starts[v];
        int32_t cv = cores[v], cnt = 0;
        for (int32_t j = 0; j < lens[v]; j++)
            cnt += cores[nb[j]] >= cv;
        out[v] = cnt;
    }
}

/* ------------------------------------------------------------------
   per-level maintenance kernels */

/* Number of u's neighbors whose core is at least u's own: the round's
   maintained support, the level's pairs counted in (see run_level). */
static int32_t support(const Task *t, int32_t u)
{
    return t->support[u];
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
    t->a.dirty[t->dirtied++] = u;
    return cnt;
}

static void mark_visited(Task *t, int32_t v)
{
    t->a.visited[v] = 1;
    t->ctr[0]++;
    t->a.order[t->visits++] = v;
    t->a.dirty[t->dirtied++] = v;
}

static void mark_removed(Task *t, int32_t v)
{
    t->a.removed[v] = 1;
    t->ctr[1]++;
    t->a.cascade[t->cascaded++] = v;
}

/* Insertion flavor of the negative cascade: a vertex whose slack falls to
   exactly the level is ruled out in turn.  Untouched vertices may be
   driven negative, which later seeding adds back in. */
static void rule_out_cascade(Task *t, int32_t r)
{
    Arena a = t->a;
    int32_t k = t->k;
    t->cascaded = 0;
    mark_removed(t, r);
    while (t->cascaded) {
        int32_t v = a.cascade[--t->cascaded];
        const int32_t *nb = t->pool + t->starts[v];
        for (int32_t j = 0; j < t->lens[v]; j++) {
            int32_t w = nb[j];
            if (t->cores[w] != k)
                continue;
            if (!a.visited[w] && a.slack[w] == 0)
                a.dirty[t->dirtied++] = w;
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
    t->cascaded = 0;
    mark_removed(t, r);
    while (t->cascaded) {
        int32_t v = a.cascade[--t->cascaded];
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
   keep_removed, and resets every touched arena slot.  Returns the kept
   count (the ids are left at the front of t->a.order). */
static int64_t finish(Task *t, int keep_removed)
{
    Arena a = t->a;
    int64_t cnt = 0;
    for (int64_t i = 0; i < t->visits; i++) {
        int32_t v = a.order[i];
        if ((a.removed[v] != 0) == keep_removed)
            a.order[cnt++] = v;
    }
    for (int64_t i = 0; i < t->dirtied; i++) {
        int32_t v = a.dirty[i];
        a.visited[v] = 0;
        a.removed[v] = 0;
        a.slack[v] = 0;
        a.csup[v] = UNSET;
    }
    return cnt;
}

/* Vertices of core level t->k that rise after the level's p edges (eu,
   ev), all in range and at the level, were inserted into the adjacency
   arrays.  Returns their count and leaves them, in visit order, at the
   front of t->a.order; t->ctr receives the five counters. */
static int64_t cm_insert_level(Task *t, int64_t p, const int32_t *eu,
                               const int32_t *ev)
{
    Arena a = t->a;
    int32_t k = t->k;
    const int32_t *cores = t->cores;
    for (int64_t i = 0; i < p; i++) {
        int32_t r = cores[eu[i]] >= cores[ev[i]] ? ev[i] : eu[i];
        if (a.visited[r] || a.removed[r])
            continue;
        int32_t c = constrained_support(t, r);
        a.slack[r] = a.slack[r] >= 0 ? c : a.slack[r] + c;
        mark_visited(t, r);
        int64_t top = 0;
        a.stack[top++] = r;
        while (top) {
            int32_t v = a.stack[--top];
            if (a.slack[v] > k) {
                const int32_t *nb = t->pool + t->starts[v];
                for (int32_t j = 0; j < t->lens[v]; j++) {
                    int32_t w = nb[j];
                    if (cores[w] == k && !a.visited[w]
                            && support(t, w) > k) {
                        mark_visited(t, w);
                        a.slack[w] += constrained_support(t, w);
                        a.stack[top++] = w;
                    }
                }
            } else if (!a.removed[v]) {
                rule_out_cascade(t, v);
            }
        }
    }
    return finish(t, 0);
}

/* Vertices of core level t->k that fall after the level's p edges (eu,
   ev) were deleted from the adjacency arrays.  Inputs and outputs as
   cm_insert_level. */
static int64_t cm_delete_level(Task *t, int64_t p, const int32_t *eu,
                               const int32_t *ev)
{
    const int32_t *cores = t->cores;
    for (int64_t i = 0; i < p; i++) {
        int32_t a = eu[i], b = ev[i];
        if (cores[a] != cores[b]) {
            delete_check(t, cores[a] >= cores[b] ? b : a);
        } else {
            delete_check(t, a);
            delete_check(t, b);
        }
    }
    return finish(t, 1);
}

/* ------------------------------------------------------------------
   one round's level tasks on the calling thread and helper threads */

/* A row of results per level: the level, its moved count (or an error
   return), the offset of its ids in the round's output, the five
   counters, wall and thread-CPU nanoseconds, the worker slot that ran it
   (0 is the calling thread, h the h-th helper to join the round), and the
   survivors of an insert task's riser peel (0 in a delete round). */
enum { R_LEVEL, R_COUNT, R_OFFSET, R_CTR, R_WALL = R_CTR + 5, R_CPU,
       R_WORKER, R_SURVIVORS, ROW };

#define MAX_HELPERS 63

typedef struct Round {
    int insert;
    int64_t n;
    const int64_t *starts;
    const int32_t *lens, *pool, *cores;
    int32_t *support;  /* each task writes its level's entries only */
    int64_t levels;
    const int64_t *ks, *offsets;  /* level i is ks[i], with the pairs
                                     offsets[i] .. offsets[i + 1] - 1 */
    const int32_t *us, *vs;
    const int64_t *claim;  /* the level indices in claim order */
    int32_t *out;
    int64_t *rows;
    atomic_int_fast64_t next;  /* claim cursor */
    atomic_int_fast64_t used;  /* ids written to out */
    int64_t want, joined, seats;  /* helpers wanted, inside, ever joined;
                                     under lock */
    struct Round *link;  /* open rounds; under lock */
} Round;

static OwnArena helper_arenas[MAX_HELPERS];
static int64_t started;  /* helpers alive; under lock */
static Round *open_rounds;  /* rounds helpers may join; under lock */
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t work = PTHREAD_COND_INITIALIZER;  /* a round opened */
static pthread_cond_t idle = PTHREAD_COND_INITIALIZER;  /* a helper left */
static pthread_once_t fork_hooks = PTHREAD_ONCE_INIT;

/* Frees o's buffers and zeroes it; o itself stays the caller's. */
void cm_arena_drop(OwnArena *o)
{
    free(o->a.visited);
    free(o->a.removed);
    free(o->a.slack);
    free(o->a.csup);
    free(o->a.order);
    free(o->a.stack);
    free(o->a.cascade);
    free(o->a.dirty);
    memset(o, 0, sizeof *o);
}

/* Grows o (at least doubling it) to cover n vertices, every slot at its
   reset value and every list with room for its bound (see Arena).
   Returns 0, or ALLOC_FAILED with o dropped. */
static int own_fit(OwnArena *o, int64_t n)
{
    if (o->cap >= n)
        return 0;
    size_t cap = (size_t)(n > 2 * o->cap ? n : 2 * o->cap);
    cm_arena_drop(o);
    o->a.visited = calloc(cap, 1);
    o->a.removed = calloc(cap, 1);
    o->a.slack = calloc(cap, sizeof *o->a.slack);
    o->a.csup = malloc(cap * sizeof *o->a.csup);
    o->a.order = malloc(cap * sizeof *o->a.order);
    o->a.stack = malloc(cap * sizeof *o->a.stack);
    o->a.cascade = malloc(cap * sizeof *o->a.cascade);
    o->a.dirty = malloc(3 * cap * sizeof *o->a.dirty);
    if (!(o->a.visited && o->a.removed && o->a.slack && o->a.csup
          && o->a.order && o->a.stack && o->a.cascade && o->a.dirty)) {
        cm_arena_drop(o);
        return ALLOC_FAILED;
    }
    memset(o->a.csup, 0xff, cap * sizeof *o->a.csup);  /* UNSET */
    o->cap = (int64_t)cap;
    return 0;
}

static int64_t ns(clockid_t clock)
{
    struct timespec t;
    clock_gettime(clock, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* How many of the cnt level-k risers survive a peel at threshold k + 2,
   a riser's support being its neighbours of core above k or among the
   risers: one worklist pass, linear in the risers' degrees.  Marks risers
   in o's visited slots and peeled ones in its removed slots, keeps each
   support in its slack slot and the worklist in its order (each riser
   enters once), and resets every slot it wrote. */
static int64_t riser_peel(const Round *r, int32_t k, const int32_t *risers,
                          int64_t cnt, Arena a)
{
    int32_t *work = a.order;
    int64_t top = 0, need = (int64_t)k + 2;
    for (int64_t i = 0; i < cnt; i++)
        a.visited[risers[i]] = 1;
    for (int64_t i = 0; i < cnt; i++) {
        int32_t v = risers[i], s = 0;
        const int32_t *nb = r->pool + r->starts[v];
        for (int32_t j = 0; j < r->lens[v]; j++)
            s += r->cores[nb[j]] > k || a.visited[nb[j]];
        a.slack[v] = s;
        if (s < need) {
            a.removed[v] = 1;
            work[top++] = v;
        }
    }
    int64_t gone = top;
    while (top) {
        int32_t v = work[--top];
        const int32_t *nb = r->pool + r->starts[v];
        for (int32_t j = 0; j < r->lens[v]; j++) {
            int32_t w = nb[j];
            if (a.visited[w] && !a.removed[w] && --a.slack[w] < need) {
                a.removed[w] = 1;
                work[top++] = w;
                gone++;
            }
        }
    }
    for (int64_t i = 0; i < cnt; i++) {
        int32_t v = risers[i];
        a.visited[v] = a.removed[v] = 0;
        a.slack[v] = 0;
    }
    return cnt - gone;
}

/* Moves by step the support of the level-k endpoints of the p pairs (eu,
   ev): a pair at level k changes no other vertex's support. */
static void count_pairs(const Round *r, int32_t k, int64_t p,
                        const int32_t *eu, const int32_t *ev, int32_t step)
{
    for (int64_t i = 0; i < p; i++) {
        if (r->cores[eu[i]] == k)
            r->support[eu[i]] += step;
        if (r->cores[ev[i]] == k)
            r->support[ev[i]] += step;
    }
}

/* Runs the level r claims c-th with arena o (NULL: it could not be
   grown) and fills its row.  The task first counts its pairs into the
   support, and an insert task ends with riser_peel over its moved ids,
   once they are copied out. */
static void run_level(Round *r, int64_t c, int64_t slot, OwnArena *o)
{
    int64_t i = r->claim[c], *row = r->rows + i * ROW;
    int64_t wall = ns(CLOCK_MONOTONIC), cpu = ns(CLOCK_THREAD_CPUTIME_ID);
    int64_t b = r->offsets[i], p = r->offsets[i + 1] - b;
    int32_t k = (int32_t)r->ks[i];
    const int32_t *eu = r->us + b, *ev = r->vs + b;
    int64_t cnt;
    if (!in_range(p, eu, ev, r->n))
        cnt = BAD_ENDPOINT;
    else if (!at_level(p, eu, ev, r->cores, k))
        cnt = BAD_LEVEL;
    else if (!o)
        cnt = ALLOC_FAILED;
    else {
        count_pairs(r, k, p, eu, ev, r->insert ? 1 : -1);
        Task t = {r->starts, r->lens, r->pool, r->cores, r->support, o->a, k,
                  0, 0, 0, row + R_CTR};
        cnt = (r->insert ? cm_insert_level : cm_delete_level)(&t, p, eu, ev);
    }
    if (cnt > 0) {
        int64_t at = atomic_fetch_add(&r->used, cnt);
        memcpy(r->out + at, o->a.order, (size_t)cnt * sizeof *o->a.order);
        row[R_OFFSET] = at;
        if (r->insert)
            row[R_SURVIVORS] = riser_peel(r, k, r->out + at, cnt, o->a);
    }
    row[R_LEVEL] = k;
    row[R_COUNT] = cnt;
    row[R_WALL] = ns(CLOCK_MONOTONIC) - wall;
    row[R_CPU] = ns(CLOCK_THREAD_CPUTIME_ID) - cpu;
    row[R_WORKER] = slot;
}

/* Runs the c-th level of r's claim order, already claimed, then claims
   and runs levels until none is left, each as worker slot with arena o
   grown to cover r's vertices. */
static void claim_levels(Round *r, int64_t c, int64_t slot, OwnArena *o)
{
    for (; c < r->levels; c = atomic_fetch_add(&r->next, 1))
        run_level(r, c, slot, own_fit(o, r->n) ? NULL : o);
}

/* An open round with unclaimed levels that wants more helpers (under
   lock). */
static Round *joinable(void)
{
    for (Round *r = open_rounds; r; r = r->link)
        if (r->joined < r->want && atomic_load(&r->next) < r->levels)
            return r;
    return NULL;
}

static void *helper_main(void *arg)
{
    OwnArena *own = arg;
    pthread_mutex_lock(&lock);
    for (;;) {
        Round *r = joinable();
        if (!r) {
            pthread_cond_wait(&work, &lock);
            continue;
        }
        r->joined++;
        int64_t slot = ++r->seats;
        pthread_mutex_unlock(&lock);
        claim_levels(r, atomic_fetch_add(&r->next, 1), slot, own);
        pthread_mutex_lock(&lock);
        if (--r->joined == 0)
            pthread_cond_broadcast(&idle);
    }
    return NULL;
}

/* Starts helpers until want are alive, as far as threads can be made
   (under lock).  Helpers block every signal: the calling thread takes
   them. */
static void start_helpers(int64_t want)
{
    sigset_t all, old;
    pthread_attr_t attr;
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    while (started < want) {
        pthread_t th;
        if (pthread_create(&th, &attr, helper_main, &helper_arenas[started]))
            break;
        started++;
    }
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

static void fork_prepare(void)
{
    pthread_mutex_lock(&lock);
}

static void fork_parent(void)
{
    pthread_mutex_unlock(&lock);
}

/* Only the forking thread lives on in the child: forget the helpers and
   every open round. */
static void fork_child(void)
{
    for (int64_t h = 0; h < started; h++)
        cm_arena_drop(&helper_arenas[h]);
    started = 0;
    open_rounds = NULL;
    pthread_mutex_init(&lock, NULL);
    pthread_cond_init(&work, NULL);
    pthread_cond_init(&idle, NULL);
}

static void install_fork_hooks(void)
{
    pthread_atfork(fork_prepare, fork_parent, fork_child);
}

/* Brings the support up to date for the total moved ids in r->out, whose
   cores move by one (r->cores are the old ones): recounts each moved
   vertex from its block under the new cores, and moves by one the support
   of each unmoved neighbour w of a moved x, up on insert where cores[w] is
   x's old core plus one, down on delete where cores[w] is x's old core.
   Marks the moved ids in a's visited slots, and resets them. */
static void shift_support(const Round *r, int64_t total, Arena a)
{
    int32_t step = r->insert ? 1 : -1, above = r->insert ? 1 : 0;
    for (int64_t i = 0; i < total; i++)
        a.visited[r->out[i]] = 1;
    for (int64_t i = 0; i < total; i++) {
        int32_t x = r->out[i], cx = r->cores[x], cnt = 0;
        const int32_t *nb = r->pool + r->starts[x];
        for (int32_t j = 0; j < r->lens[x]; j++) {
            int32_t w = nb[j], cw = r->cores[w];
            if (a.visited[w]) {
                cnt += cw >= cx;  /* both cores moved */
            } else {
                cnt += cw >= cx + step;
                if (cw == cx + above)
                    r->support[w] += step;
            }
        }
        r->support[x] = cnt;
    }
    for (int64_t i = 0; i < total; i++)
        a.visited[r->out[i]] = 0;
}

/* The level indices of a round in claim order: most pairs first, ties by
   ascending level (so by index, the levels ascending).  Returns NULL when
   the buffer (also the sort's scratch) cannot be allocated. */
static int64_t *claim_order(int64_t levels, const int64_t *offsets)
{
    uint64_t *key = malloc(2 * (size_t)levels * sizeof *key);
    if (!key)
        return NULL;
    for (int64_t i = 0; i < levels; i++)
        key[i] = (uint64_t)(UINT32_MAX - (offsets[i + 1] - offsets[i])) << 32
                 | (uint64_t)i;
    radix_sort(key, key + levels, levels, 0);
    int64_t *claim = (int64_t *)key;
    for (int64_t i = 0; i < levels; i++)
        claim[i] = (int64_t)(key[i] & UINT32_MAX);
    return claim;
}

/* Runs the level tasks of one round over the adjacency arrays and cores
   of the n vertices; insert selects the kernel.  The round is a flat
   plan: level i is ks[i], and its pairs are (us[j], vs[j]) for j in
   offsets[i] .. offsets[i + 1] - 1, the levels ascending, the offsets
   rising from 0 to m (below 2^32 pairs a level).  The calling thread
   claims the heaviest level before it wakes up to helpers_wanted helper
   threads for the rest, so it always runs the heaviest level; it runs
   levels with arena caller, growing it as needed.  Each level fills its
   row of rows (ROW int64, zeroed here first); a failed level's count is
   its error return.  Once every level has finished, the moved ids of each
   level lie in out (room for n ids), in the task's visit order, level
   after level in ascending level order.  support, the maintained support
   from before the round's pairs, is kept as _kernels_py's docstring says:
   each task counts its pairs in (count_pairs); then, if no level failed
   and no riser peel left survivors, shift_support brings it up to date
   for the moved ids, and each level's sup_evals is its moved count; else
   the levels that ran count their pairs out again.  Returns the moved
   count; BAD_ORDER, before any level runs, unless the levels and offsets
   are as described; ALLOC_FAILED if the claim order cannot be allocated;
   or the error of the lowest failed level. */
int64_t cm_run_levels(int insert, int64_t n, const int64_t *starts,
                      const int32_t *lens, const int32_t *pool,
                      const int32_t *cores, int32_t *support, int64_t levels,
                      const int64_t *ks, const int64_t *offsets, int64_t m,
                      const int32_t *us, const int32_t *vs,
                      int64_t helpers_wanted, OwnArena *caller, int32_t *out,
                      int64_t *rows)
{
    memset(rows, 0, (size_t)levels * ROW * sizeof *rows);
    if (offsets[0] != 0 || offsets[levels] != m)
        return BAD_ORDER;
    for (int64_t i = 0; i < levels; i++)
        if (ks[i] < 0 || ks[i] > INT32_MAX || (i && ks[i] <= ks[i - 1])
                || offsets[i + 1] < offsets[i]
                || offsets[i + 1] - offsets[i] > UINT32_MAX)
            return BAD_ORDER;
    int64_t *claim = claim_order(levels, offsets);
    if (!claim)
        return ALLOC_FAILED;
    Round r = {.insert = insert, .n = n, .starts = starts, .lens = lens,
               .pool = pool, .cores = cores, .support = support,
               .levels = levels, .ks = ks, .offsets = offsets, .us = us,
               .vs = vs, .claim = claim, .out = out, .rows = rows};
    atomic_init(&r.next, 1);  /* the caller holds the heaviest level */
    atomic_init(&r.used, 0);
    int64_t want = helpers_wanted < MAX_HELPERS ? helpers_wanted : MAX_HELPERS;
    if (want > 0) {
        pthread_once(&fork_hooks, install_fork_hooks);
        pthread_mutex_lock(&lock);
        if (started < want)
            start_helpers(want);
        r.want = want;
        r.link = open_rounds;
        open_rounds = &r;
        for (int64_t h = 0; h < want; h++)
            pthread_cond_signal(&work);
        pthread_mutex_unlock(&lock);
    }
    claim_levels(&r, 0, 0, caller);
    if (want > 0) {
        pthread_mutex_lock(&lock);
        Round **at = &open_rounds;
        while (*at != &r)
            at = &(*at)->link;
        *at = r.link;
        while (r.joined)
            pthread_cond_wait(&idle, &lock);
        pthread_mutex_unlock(&lock);
    }
    free(claim);
    int64_t total = 0, failed = 0, survivors = 0;
    for (int64_t i = 0; i < levels; i++) {
        int64_t *row = rows + i * ROW;
        if (row[R_COUNT] < 0 && !failed)
            failed = row[R_COUNT];
        total += row[R_COUNT];
        survivors |= row[R_SURVIVORS];
    }
    if (failed || survivors)  /* the support as it was found */
        for (int64_t i = 0; i < levels; i++)
            if (rows[i * ROW + R_COUNT] >= 0)
                count_pairs(&r, (int32_t)ks[i], offsets[i + 1] - offsets[i],
                            us + offsets[i], vs + offsets[i],
                            insert ? -1 : 1);
    if (failed)
        return failed;
    /* the levels wrote their ids as they finished; lay them out in level
       order through the caller's order list, free now and (the caller
       having run a level) grown to n */
    int32_t *laid = caller->a.order;
    for (int64_t i = 0, at = 0; i < levels; i++) {
        int64_t *row = rows + i * ROW;
        memcpy(laid + at, out + row[R_OFFSET],
               (size_t)row[R_COUNT] * sizeof *out);
        row[R_OFFSET] = at;
        at += row[R_COUNT];
    }
    memcpy(out, laid, (size_t)total * sizeof *out);
    if (!survivors) {
        shift_support(&r, total, caller->a);
        for (int64_t i = 0; i < levels; i++)
            rows[i * ROW + R_CTR + 3] = rows[i * ROW + R_COUNT];
    }
    return total;
}

/* ------------------------------------------------------------------
   round planning and edge removal */

/* The level of pair j: its lower endpoint core. */
static int32_t pair_level(const int32_t *us, const int32_t *vs,
                          const int32_t *cores, int64_t j)
{
    int32_t cu = cores[us[j]], cv = cores[vs[j]];
    return cu < cv ? cu : cv;
}

/* plan_round's scan over the m pairs (us, vs), in canonical order, of
   which those marked alive are live; cores covers the n vertices.  A live
   pair at level hold is left pending, and one at level free_level is
   selected.  Any other is left pending when one of its endpoints sits at
   the pair's level (the lower endpoint core) and is already covered by an
   earlier selection; otherwise it is selected and covers each endpoint at
   its level.  With s pairs selected at L levels, writes back to back to
   index (room for 3m + 1 entries): the selected pairs' indices,
   ascending (s), and the round as a flat plan, its levels, ascending
   (L), and their offsets (L + 1); and to pairs (room for 2m) the selected
   pairs, grouped by level in canonical order within each, as their us
   (s) and then their vs (s).  tally[0] and tally[1] receive the lowest
   and highest level of a pending live pair, or -1, and tally[2] the
   selected count.  Returns L; BAD_ENDPOINT, or ALLOC_FAILED when the
   scan's marks cannot be allocated, having written only to the
   outputs. */
int64_t cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                     const uint8_t *alive, const int32_t *cores, int64_t n,
                     int64_t hold, int64_t free_level, int64_t *index,
                     int32_t *pairs, int64_t *tally)
{
    if (!in_range(m, us, vs, n))
        return BAD_ENDPOINT;
    uint8_t *covered = malloc(n ? (size_t)n : 1);
    if (!covered)
        return ALLOC_FAILED;
    for (int64_t j = 0; j < m; j++)  /* only endpoint marks are read */
        covered[us[j]] = covered[vs[j]] = 0;
    int64_t *picked = index, s = 0;
    int32_t lo = INT32_MAX, hi = -1;  /* the selected levels' range */
    tally[0] = tally[1] = -1;
    for (int64_t j = 0; j < m; j++) {
        if (!alive[j])
            continue;
        int32_t u = us[j], v = vs[j], cu = cores[u], cv = cores[v];
        int32_t k = cu < cv ? cu : cv;
        if (k == hold || (k != free_level && ((cu == k && covered[u])
                                              || (cv == k && covered[v])))) {
            if (tally[1] < 0 || k < tally[0])
                tally[0] = k;
            if (k > tally[1])
                tally[1] = k;
            continue;
        }
        picked[s++] = j;
        if (cu == k)
            covered[u] = 1;
        if (cv == k)
            covered[v] = 1;
        if (k < lo)
            lo = k;
        if (k > hi)
            hi = k;
    }
    free(covered);
    tally[2] = s;
    if (!s) {
        index[0] = 0;  /* the offsets of no level */
        return 0;
    }
    /* a stable counting sort of the selected pairs by level */
    int64_t *at = calloc((size_t)(hi - lo) + 1, sizeof *at);
    if (!at)
        return ALLOC_FAILED;
    for (int64_t i = 0; i < s; i++)
        at[pair_level(us, vs, cores, picked[i]) - lo]++;
    int64_t levels = 0, sum = 0;
    for (int64_t b = 0; b <= hi - lo; b++)
        levels += at[b] != 0;
    int64_t *ks = picked + s, *offsets = ks + levels;
    int32_t *pus = pairs, *pvs = pairs + s;
    offsets[0] = 0;
    levels = 0;
    for (int64_t b = 0; b <= hi - lo; b++) {
        if (!at[b])
            continue;
        int64_t here = at[b];
        at[b] = sum;
        sum += here;
        ks[levels++] = lo + b;
        offsets[levels] = sum;
    }
    for (int64_t i = 0; i < s; i++) {
        int64_t j = picked[i];
        int64_t p = at[pair_level(us, vs, cores, j) - lo]++;
        pus[p] = us[j];
        pvs[p] = vs[j];
    }
    free(at);
    return levels;
}

/* End of the group of equal sources that starts at i. */
static int64_t group_end(const int32_t *src, int64_t m, int64_t i)
{
    int64_t e = i + 1;
    while (e < m && src[e] == src[i])
        e++;
    return e;
}

/* Puts back the blocks of the groups before the one that starts at stop,
   each compacted after its entries were copied to undo in group order;
   each lost exactly its group's entries. */
static void restore_blocks(const int32_t *src, int64_t stop,
                           const int64_t *starts, int32_t *lens,
                           int32_t *pool, const int32_t *undo)
{
    for (int64_t i = 0, e; i < stop; i = e) {
        e = group_end(src, stop, i);
        int32_t len = lens[src[i]] + (int32_t)(e - i);
        memcpy(pool + starts[src[i]], undo, (size_t)len * sizeof *undo);
        lens[src[i]] = len;
        undo += len;
    }
}

/* Removes the m directed entries (src[i], dst[i]), grouped by ascending
   source, as cm_remove_edges says; each group marks its targets in mark
   (all 0, and left so). */
static int remove_grouped(int64_t m, const int32_t *src, const int32_t *dst,
                          const int64_t *starts, int32_t *lens,
                          int32_t *pool, uint8_t *mark)
{
    int64_t total = 0;  /* entries of the touched blocks */
    for (int64_t i = 0, e; i < m; i = e) {
        e = group_end(src, m, i);
        total += lens[src[i]];
    }
    int32_t *undo = malloc(total ? (size_t)total * sizeof *undo : 1);
    if (!undo)
        return ALLOC_FAILED;
    int32_t *copy = undo;
    for (int64_t i = 0, e; i < m; i = e) {
        e = group_end(src, m, i);
        int repeated = 0;
        for (int64_t j = i; j < e; j++) {
            repeated |= mark[dst[j]];
            mark[dst[j]] = 1;
        }
        int32_t *nb = pool + starts[src[i]];
        int32_t len = repeated ? 0 : lens[src[i]], kept = 0;
        for (int32_t s = 0; s < len; s++) {
            int32_t x = nb[s];
            copy[s] = x;
            if (!mark[x])
                nb[kept++] = x;
        }
        for (int64_t j = i; j < e; j++)
            mark[dst[j]] = 0;
        /* block entries are distinct, so losing e - i of them means every
           target was present */
        if (repeated || len - kept != e - i) {
            memcpy(nb, copy, (size_t)len * sizeof *copy);
            restore_blocks(src, i, starts, lens, pool, undo);
            free(undo);
            return NOT_EDGES;
        }
        lens[src[i]] = kept;
        copy += len;
    }
    free(undo);
    return 0;
}

/* Removes the m edges {us[i], vs[i]} from the adjacency blocks of the n
   vertices: both directed entries of each, grouped by ascending source
   (a sort of the sources alone, which keeps each block's targets in their
   input order), which arena o's visited slots mark in turn.  Each touched
   block is compacted in place, in one scan that also copies it to an undo
   buffer, and keeps the order of its remaining entries; a block that
   lacks a target, or a target given twice, puts back every block touched
   so far.  Returns 0; or, leaving lens and pool as they were,
   BAD_ENDPOINT, NOT_EDGES unless the pairs are distinct edges of the
   blocks, or ALLOC_FAILED when o or a buffer cannot be grown. */
int cm_remove_edges(int64_t m, const int32_t *us, const int32_t *vs,
                    int64_t n, const int64_t *starts, int32_t *lens,
                    int32_t *pool, OwnArena *o)
{
    if (!in_range(m, us, vs, n))
        return BAD_ENDPOINT;
    if (own_fit(o, n))
        return ALLOC_FAILED;
    int64_t e = 2 * m;  /* directed entries */
    uint64_t *keys = malloc(e ? 2 * (size_t)e * sizeof *keys : 1);
    if (!keys)
        return ALLOC_FAILED;
    for (int64_t i = 0; i < m; i++) {
        keys[2 * i] = (uint64_t)us[i] << 32 | (uint64_t)vs[i];
        keys[2 * i + 1] = (uint64_t)vs[i] << 32 | (uint64_t)us[i];
    }
    radix_sort(keys, keys + e, e, 4);
    int32_t *src = (int32_t *)(keys + e), *dst = src + e;  /* the scratch */
    for (int64_t i = 0; i < e; i++) {
        src[i] = (int32_t)(keys[i] >> 32);
        dst[i] = (int32_t)(keys[i] & UINT32_MAX);
    }
    int code = remove_grouped(e, src, dst, starts, lens, pool,
                              o->a.visited);
    free(keys);
    return code;
}

/* out[i] = is {us[i], vs[i]} an edge, for the m pairs over the n vertices:
   is the one endpoint in the block of the other, the shorter block (that
   of us[i] on a tie)?  Returns 0, or BAD_ENDPOINT, writing nothing. */
int cm_has_edges(int64_t m, const int32_t *us, const int32_t *vs, int64_t n,
                 const int64_t *starts, const int32_t *lens,
                 const int32_t *pool, uint8_t *out)
{
    if (!in_range(m, us, vs, n))
        return BAD_ENDPOINT;
    for (int64_t i = 0; i < m; i++) {
        int32_t u = us[i], v = vs[i];
        if (lens[v] < lens[u]) {
            u = vs[i];
            v = us[i];
        }
        const int32_t *nb = pool + starts[u];
        int32_t len = lens[u], s = 0;
        while (s < len && nb[s] != v)
            s++;
        out[i] = s < len;
    }
    return 0;
}

/* ------------------------------------------------------------------
   edge-list text */

static int is_blank(const unsigned char *p, const unsigned char *end)
{
    return p < end && (*p == ' ' || *p == '\t');
}

/* Is p at a line end (\n, \r\n, or the end of the buffer)? */
static int at_line_end(const unsigned char *p, const unsigned char *end)
{
    return p == end || *p == '\n'
           || (*p == '\r' && p + 1 < end && p[1] == '\n');
}

/* Parses the len bytes at data, which hold cap - 1 newlines, into pairs of
   labels: out holds room for cap rows of two.  The subset read is that of
   _kernels_py.parse_pairs: ASCII only; every line ends in \n or \r\n (the
   last may end the buffer instead); a line is blank (spaces and tabs), a
   comment (first non-blank byte '#', any ASCII but a lone \r after it), or
   two fields of decimal digits, each at most INT64_MAX, with spaces and
   tabs around them.  Returns the pair count and sets *comments to the
   comment-line count; NOT_MINE, having written only to out, for any other
   input. */
int64_t cm_parse_pairs(const char *data, int64_t len, int64_t *out,
                       int64_t cap, int64_t *comments)
{
    const unsigned char *p = (const unsigned char *)data, *end = p + len;
    int64_t m = 0, seen = 0;
    while (p < end) {
        while (is_blank(p, end))
            p++;
        if (p < end && *p == '#') {
            for (; p < end && *p != '\n'; p++)
                if (*p >= 0x80 || (*p == '\r' && !at_line_end(p, end)))
                    return NOT_MINE;
            seen++;
        } else {
            int64_t pair[2];
            int fields = 0;
            while (!at_line_end(p, end)) {
                if (fields == 2 || *p < '0' || *p > '9')
                    return NOT_MINE;
                int64_t v = 0;
                for (; p < end && *p >= '0' && *p <= '9'; p++) {
                    int d = *p - '0';
                    if (v >= INT64_MAX / 10
                        && (v > INT64_MAX / 10 || d > INT64_MAX % 10))
                        return NOT_MINE;
                    v = 10 * v + d;
                }
                pair[fields++] = v;
                while (is_blank(p, end))
                    p++;
            }
            if (fields == 1 || (fields == 2 && m == cap))
                return NOT_MINE;
            if (fields == 2) {
                out[2 * m] = pair[0];
                out[2 * m + 1] = pair[1];
                m++;
            }
            if (p < end && *p == '\r')
                p++;
        }
        if (p < end)
            p++;  /* the \n */
    }
    *comments = seen;
    return m;
}
