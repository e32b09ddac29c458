"""Known-violation fixture for RP003 (devtools: src)."""


def _loop(conn):
    conn.close()


class Worker:
    def start(self, ctx):
        bound = ctx.Process(target=self._run)  # RP003: bound method
        anon = ctx.Process(target=lambda: None)  # RP003: lambda

        def helper():
            return None

        nested = ctx.Process(target=helper)  # RP003: closure
        return bound, anon, nested

    def _run(self):
        return None


def spawn_lambda(ctx):
    return spawn_pipe_worker(ctx, lambda conn: conn)  # RP003: lambda


def fine_parameter(ctx, target):
    return ctx.Process(target=target)  # legal: unresolvable parameter


def fine_module_level(ctx):
    return spawn_pipe_worker(ctx, _loop)  # legal: module-level function


def spawn_pipe_worker(ctx, target):
    return ctx.Process(target=target, daemon=True)
