// Fixture: Sim::run_batch -> Sim::run_subphase, whose emit lambda grows
// a per-core queue through a subscript; that push_back must be flagged.
#include <vector>

struct Task {
    int vertex;
};

class Sim {
public:
    void run_batch(int n);

private:
    void run_subphase(int n);
    int cores_ = 4;
};

void
Sim::run_batch(int n)
{
    run_subphase(n);
}

void
Sim::run_subphase(int n)
{
    std::vector<std::vector<Task>> queues(cores_);
    auto emit = [&](int v) {
        Task task;
        task.vertex = v;
        queues[v % cores_].push_back(task);
    };
    for (int i = 0; i < n; ++i) {
        emit(i);
    }
}
