/* The compiled kernel backend: the contract is in _kernels_py.py's
   docstring, and this file is a step-for-step port of that lane (same
   visit order, same counters) in plain C11 with no Python API; the
   edge-list parser reads the same subset of inputs as the Python lane's,
   in one pass.  _kernels_c.py compiles this file (with -pthread) and
   calls it through cffi (ABI mode), which releases the GIL for the
   duration of a call.

   cm_run_levels is the only entry point into the level kernels: it runs
   all level tasks of a round in one call.  The calling thread claims
   levels from an atomic cursor, heaviest first; persistent helper
   threads, started on first need and kept for the life of the process,
   claim the rest.  The caller waits only for levels a helper has claimed,
   so a round of tiny levels costs no thread handoff.  A fork() child
   forgets the parent's helpers and starts its own.

   Every entry point that takes vertex ids checks that they lie in 0..n-1
   before it writes anything and returns BAD_ENDPOINT otherwise, and the
   level kernels check that each edge lies at their level (BAD_LEVEL); the
   caller checks dtypes, contiguity and lengths.

   The calling thread's arena comes from Python, each helper's is its own.
   Each level task records the arena slots it writes on its dirty list and
   resets them before it returns; one that fails to allocate returns
   ALLOC_FAILED and may leave a slot written but not recorded. */

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
   one id per vertex); ctr receives the five counters.  Returns BAD_LEVEL
   unless every edge lies at level k. */
static int64_t cm_insert_level(int64_t n, const int64_t *starts,
                               const int32_t *lens, const int32_t *pool,
                               const int32_t *cores, int32_t k, int64_t p,
                               const int32_t *eu, const int32_t *ev,
                               const Arena *arena, int32_t *moved,
                               int64_t *ctr)
{
    if (!in_range(p, eu, ev, n))
        return BAD_ENDPOINT;
    if (!at_level(p, eu, ev, cores, k))
        return BAD_LEVEL;
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
static int64_t cm_delete_level(int64_t n, const int64_t *starts,
                               const int32_t *lens, const int32_t *pool,
                               const int32_t *cores, int32_t k, int64_t p,
                               const int32_t *eu, const int32_t *ev,
                               const Arena *arena, int32_t *moved,
                               int64_t *ctr)
{
    if (!in_range(p, eu, ev, n))
        return BAD_ENDPOINT;
    if (!at_level(p, eu, ev, cores, k))
        return BAD_LEVEL;
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
   one round's level tasks on the calling thread and helper threads */

/* A row of results per level: the moved count (or an error return), the
   offset of the level's ids in the round's output, the five counters, wall
   and thread-CPU nanoseconds, and the worker slot that ran it (0 is the
   calling thread, h the h-th helper to join the round). */
enum { R_COUNT, R_OFFSET, R_CTR, R_WALL = R_CTR + 5, R_CPU, R_WORKER, ROW };

#define MAX_HELPERS 63

typedef struct Round {
    int insert;
    int64_t n;
    const int64_t *starts;
    const int32_t *lens, *pool, *cores;
    int64_t levels;  /* in claim order */
    const int64_t *ks, *bounds;  /* level i is ks[i] with p = bounds[i+1] -
                                    bounds[i] edges: eu at edges + 2 *
                                    bounds[i], then ev */
    const int32_t *edges;
    int32_t *out;
    int64_t *rows;
    atomic_int_fast64_t next;  /* claim cursor */
    atomic_int_fast64_t used;  /* ids written to out */
    int64_t want, joined, seats;  /* helpers wanted, inside, ever joined;
                                     under lock */
    struct Round *link;  /* open rounds; under lock */
} Round;

/* A helper's arena, with room for one level's visit order. */
typedef struct {
    Arena a;
    int32_t *order;
    int64_t cap;
} OwnArena;

static OwnArena helper_arenas[MAX_HELPERS];
static int64_t started;  /* helpers alive; under lock */
static Round *open_rounds;  /* rounds helpers may join; under lock */
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t work = PTHREAD_COND_INITIALIZER;  /* a round opened */
static pthread_cond_t idle = PTHREAD_COND_INITIALIZER;  /* a helper left */
static pthread_once_t fork_hooks = PTHREAD_ONCE_INIT;

static void own_drop(OwnArena *o)
{
    free(o->a.visited);
    free(o->a.removed);
    free(o->a.slack);
    free(o->a.sup);
    free(o->a.csup);
    free(o->order);
    memset(o, 0, sizeof *o);
}

/* Grows o (at least doubling it) to cover n vertices, every slot at its
   reset value.  Returns 0, or ALLOC_FAILED with o dropped. */
static int own_fit(OwnArena *o, int64_t n)
{
    if (o->cap >= n)
        return 0;
    size_t cap = (size_t)(n > 2 * o->cap ? n : 2 * o->cap);
    own_drop(o);
    o->a.visited = calloc(cap, 1);
    o->a.removed = calloc(cap, 1);
    o->a.slack = calloc(cap, sizeof *o->a.slack);
    o->a.sup = malloc(cap * sizeof *o->a.sup);
    o->a.csup = malloc(cap * sizeof *o->a.csup);
    o->order = malloc(cap * sizeof *o->order);
    if (!(o->a.visited && o->a.removed && o->a.slack && o->a.sup
          && o->a.csup && o->order)) {
        own_drop(o);
        return ALLOC_FAILED;
    }
    memset(o->a.sup, 0xff, cap * sizeof *o->a.sup);  /* UNSET */
    memset(o->a.csup, 0xff, cap * sizeof *o->a.csup);
    o->cap = (int64_t)cap;
    return 0;
}

static int64_t ns(clockid_t clock)
{
    struct timespec t;
    clock_gettime(clock, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* Runs level i of r with an arena whose visit-order room is order (NULL
   arena: it could not be allocated), and fills its row. */
static void run_level(Round *r, int64_t i, int64_t slot, const Arena *arena,
                      int32_t *order)
{
    int64_t *row = r->rows + i * ROW;
    int64_t wall = ns(CLOCK_MONOTONIC), cpu = ns(CLOCK_THREAD_CPUTIME_ID);
    int64_t cnt = ALLOC_FAILED;
    if (arena) {
        int64_t b = r->bounds[i], p = r->bounds[i + 1] - b;
        const int32_t *eu = r->edges + 2 * b;
        cnt = (r->insert ? cm_insert_level : cm_delete_level)(
            r->n, r->starts, r->lens, r->pool, r->cores, (int32_t)r->ks[i],
            p, eu, eu + p, arena, order, row + R_CTR);
    }
    if (cnt > 0) {
        int64_t at = atomic_fetch_add(&r->used, cnt);
        memcpy(r->out + at, order, (size_t)cnt * sizeof *order);
        row[R_OFFSET] = at;
    }
    row[R_COUNT] = cnt;
    row[R_WALL] = ns(CLOCK_MONOTONIC) - wall;
    row[R_CPU] = ns(CLOCK_THREAD_CPUTIME_ID) - cpu;
    row[R_WORKER] = slot;
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
        for (int64_t i; (i = atomic_fetch_add(&r->next, 1)) < r->levels;) {
            int ok = own_fit(own, r->n) == 0;
            run_level(r, i, slot, ok ? &own->a : NULL, own->order);
            if (r->rows[i * ROW + R_COUNT] == ALLOC_FAILED)
                own_drop(own);
        }
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
        own_drop(&helper_arenas[h]);
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

/* Runs the level tasks of one round over the adjacency arrays and cores
   of the n vertices; insert selects the kernel.  meta holds the levels in
   claim order (heaviest first), then levels + 1 edge offsets: level i is
   meta[i], with p = bounds[i + 1] - bounds[i] edges (bounds = meta +
   levels) whose eu, then ev, start at edges + 2 * bounds[i].  The calling
   thread uses arena and order (room for n ids) and asks for up to
   helpers_wanted helper threads.  Each level's moved ids go to out (room
   for n ids) and its results to its row of rows (ROW int64, counters
   zeroed); a failed level's count is its error return.  Returns once
   every level has finished. */
void cm_run_levels(int insert, int64_t n, const int64_t *starts,
                   const int32_t *lens, const int32_t *pool,
                   const int32_t *cores, int64_t levels,
                   const int64_t *meta, const int32_t *edges,
                   int64_t helpers_wanted, const Arena *arena,
                   int32_t *order, int32_t *out, int64_t *rows)
{
    Round r = {.insert = insert, .n = n, .starts = starts, .lens = lens,
               .pool = pool, .cores = cores, .levels = levels, .ks = meta,
               .bounds = meta + levels, .edges = edges, .out = out,
               .rows = rows};
    atomic_init(&r.next, 0);
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
    for (int64_t i; (i = atomic_fetch_add(&r.next, 1)) < levels;)
        run_level(&r, i, 0, arena, order);
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
}

/* ------------------------------------------------------------------
   round planning and edge removal */

enum { PENDING = 0, SELECTED = 1 };

/* plan_round's greedy scan over the m live pairs (us, vs) in canonical
   order; cores covers the n vertices.  A pair is left pending when one of
   its endpoints sits at the pair's level (the lower endpoint core) and is
   already covered by an earlier selection; otherwise it is selected and
   covers each endpoint at its level.  Writes status[j]; returns 0,
   BAD_ENDPOINT, or ALLOC_FAILED when the covered marks cannot be
   allocated. */
int cm_plan_scan(int64_t m, const int32_t *us, const int32_t *vs,
                 const int32_t *cores, int64_t n, int8_t *status)
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
